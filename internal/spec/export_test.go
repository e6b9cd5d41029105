package spec

// Test-only access to the encoding/json reference for the external tests.
var (
	RefMarshal   = refMarshal
	RefUnmarshal = refUnmarshal
)
