package xform

// CheckMatchesReference lets the external presets test compare
// against the reference pipeline.
var CheckMatchesReference = checkMatchesReference
