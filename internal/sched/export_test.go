package sched

// RefMarshal gives the external tests the encoding/json reference.
var RefMarshal = refMarshal
