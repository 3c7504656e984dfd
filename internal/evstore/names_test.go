package evstore

import "repro/internal/seglog"

// Names the white-box tests were written against, from when the store
// had its own segment machine; each is now a view of internal/seglog.
const frameHeaderLen = seglog.FrameHeaderLen

func indexPath(segPath string) string { return format.IndexPath(segPath) }
