// Package deadmod is the fixture module's root package: its import path
// is the module path, so deadexport scans it like a package under
// internal/.
package deadmod

func Public() {}

func Unused() {} // want "Unused is exported but no non-test file references it"
