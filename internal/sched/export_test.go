package sched

// RefMarshal gives the external tests the encoding/json reference.
var RefMarshal = refMarshal

// RefValidate gives the external tests the string-view validator.
var RefValidate = refValidate

// RefCompile gives the external tests the two-pass Compile.
var RefCompile = refCompile
