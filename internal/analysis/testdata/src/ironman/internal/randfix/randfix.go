// Package randfix exercises randsrc: a protocol package imports neither
// math/rand nor crypto/rand, not even for a constructor.
package randfix

import (
	"crypto/rand"     // want "crypto/rand imported by ironman/internal/randfix"
	mrand "math/rand" // want "math/rand imported in protocol code"
)

var _ = mrand.Int

// NewKeys is a constructor, which once could draw crypto/rand; the
// import above is flagged all the same.
func NewKeys() ([]byte, error) {
	b := make([]byte, 16)
	_, err := rand.Read(b)
	return b, err
}

// stale keeps a directive whose import is gone: the directive is the
// finding.
func stale() []byte {
	//ironman:allow(randsrc) fixture: the import moved out // want "ironman:allow\(randsrc\) suppresses nothing"
	return make([]byte, 16)
}
