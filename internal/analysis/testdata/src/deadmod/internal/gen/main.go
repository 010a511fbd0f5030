// Command gen is a package main under internal/: its uses count, its
// exports are not scanned.
package main

import (
	"deadmod"
	"deadmod/internal/lib"
)

func Exported() {}

func main() {
	deadmod.Public()
	lib.OnlyMain()
	lib.Used()
}
