package randfix

import (
	"crypto/rand"     //ironman:allow(randsrc) fixture: only this import is audited
	mrand "math/rand" // want "math/rand imported in protocol code"
)

var _ = mrand.Int

// audited draws through an audited import. The directive trails its
// own line, so it claims that import and not the one below it.
func audited() ([]byte, error) {
	b := make([]byte, 16)
	_, err := rand.Read(b)
	return b, err
}
