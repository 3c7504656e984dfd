package histstore

// indexPath is the name the white-box tests were written against, from
// when the store had its own segment machine; the sidecar naming is
// internal/seglog's now.
func indexPath(segPath string) string { return format.IndexPath(segPath) }
