//go:build !amd64 || purego

package aesprg

import "ironman/internal/block"

// aesni is false: this build has no kernel, so every AES call goes
// through crypto/aes.
var aesni = false

func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool) {
	panic("aesprg: no AES-NI kernel in this build")
}
