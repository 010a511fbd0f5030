//go:build !amd64 || purego

package prg

import "ironman/internal/block"

// expand8 is nil: this build has no lane kernel, so every level runs
// Expand per parent.
var expand8 func(dst, src, sums *block.Block, arity int)
