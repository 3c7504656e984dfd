package trace

// The external test package (which can import internal/workload) drives
// the two halves of the line decoder separately.
var (
	DecodeEventFast = decodeEventFast
	DecodeLine      = decodeLine
)
