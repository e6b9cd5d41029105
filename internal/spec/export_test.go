package spec

// Test-only access to the encoding/json reference for the external tests.
var (
	RefUnmarshal   = refUnmarshal
	RefMarshalMaps = refMarshal
)

// RefMarshal encodes s with the encoding/json reference.
func RefMarshal(s *Spec) ([]byte, error) { return refMarshal(mapsOf(s)) }
