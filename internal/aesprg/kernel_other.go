//go:build !amd64 || purego

package aesprg

import "ironman/internal/block"

// aesni and vaes are false: this build has no kernel, so every AES call
// goes through crypto/aes.
var aesni, vaes = false, false

func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool) {
	panic("aesprg: no AES-NI kernel in this build")
}

func ctrVAES(rk *[176]byte, dst *block.Block, ctr uint64, n int) {
	panic("aesprg: no VAES kernel in this build")
}
