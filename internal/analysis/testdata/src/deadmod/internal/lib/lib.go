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

//ironman:allow(deadexport) fixture: kept for a caller that lands later
func Kept() {}

//ironman:allow(deadexport)
func NoReason() {} // want "must carry a reason"

//ironman:allow(deadexport) fixture: stale, Used has a caller // want "ironman:allow\(deadexport\) suppresses nothing"
func Used() {}

func use() {
	var c Conn = Outer{}
	fmt.Println(c, Wire{}, Rows[0].Name, Cols)
}
