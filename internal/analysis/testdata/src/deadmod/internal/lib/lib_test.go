package lib

// A reference from a test file does not keep OnlyTest alive.
func callOnlyTest() { OnlyTest() }
