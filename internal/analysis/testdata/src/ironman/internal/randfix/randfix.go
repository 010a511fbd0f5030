// Package randfix exercises randsrc: math/rand is banned outright,
// crypto/rand is fine in constructors/dealers and flagged elsewhere.
package randfix

import (
	"crypto/rand"
	mrand "math/rand" // want "math/rand imported in protocol code"
)

var _ = mrand.Int

// NewKeys is a constructor; fresh system entropy is expected here.
func NewKeys() ([]byte, error) {
	b := make([]byte, 16)
	_, err := rand.Read(b)
	return b, err
}

// DealPair is a dealer; same policy as a constructor.
func DealPair() ([]byte, error) {
	b := make([]byte, 32)
	_, err := rand.Read(b)
	return b, err
}

// refresh draws mid-protocol randomness from crypto/rand: flagged.
func refresh() ([]byte, error) {
	b := make([]byte, 16)
	_, err := rand.Read(b) // want "crypto/rand.Read outside a setup-time function \(refresh\)"
	return b, err
}

// audited carries a justified suppression.
func audited() ([]byte, error) {
	b := make([]byte, 16)
	//ironman:allow(randsrc) fixture: this draw is audited fresh entropy
	_, err := rand.Read(b)
	return b, err
}

// trailing audits its first draw only: a trailing directive claims its
// own line, not the next one.
func trailing() {
	a, b := make([]byte, 16), make([]byte, 16)
	rand.Read(a) //ironman:allow(randsrc) fixture: only this draw is audited
	rand.Read(b) // want "crypto/rand.Read outside a setup-time function \(trailing\)"
}

// stale keeps a directive whose draw is gone: the directive is the
// finding.
func stale() []byte {
	//ironman:allow(randsrc) fixture: the draw moved out // want "ironman:allow\(randsrc\) suppresses nothing"
	return make([]byte, 16)
}
