// Package lib exercises deadexport: every exported name is referenced
// from a non-test file, exempt, or carries a want.
package lib

import "fmt"

type Conn interface{ Send(b []byte) error }

// Impl's methods implement Conn and fmt.Stringer; nothing names them.
type Impl struct{}

func (Impl) Send(b []byte) error { return nil }
func (Impl) String() string      { return "impl" }

type Wire struct {
	Len  int    `json:"len"` // tagged: a wire format field
	Note string // want "Wire.Note is exported but no non-test file references it"
}

type Outer struct{ Impl } // embedded

// Identical literal struct types: Rows[0].Name keeps Cols' Name too.
var (
	Rows = []struct{ Name string }{{"a"}}
	Cols = []struct{ Name string }{{"b"}}
)

func OnlyTest() {} // want "OnlyTest is exported but no non-test file references it"

func OnlyMain() {}

// A directive suppresses no dead export, with or without a reason: both
// it and the export are reported.

//ironman:allow(deadexport) fixture: kept for a caller that lands later // want "ironman:allow\(deadexport\) suppresses nothing"
func Kept() {} // want "Kept is exported but no non-test file references it"

//ironman:allow(deadexport) // want "ironman:allow\(deadexport\) suppresses nothing"
func NoReason() {} // want "NoReason is exported but no non-test file references it"

//ironman:allow(deadexport) fixture: stale, Used has a caller // want "ironman:allow\(deadexport\) suppresses nothing"
func Used() {}

func use() {
	var c Conn = Outer{}
	fmt.Println(c, Wire{}, Rows[0].Name, Cols)
}
