// Command app references the fixture library from another package.
package main

import (
	"fmt"

	"unref/internal/lib"
)

func main() {
	var n lib.Namer = lib.Impl{}
	fmt.Println(lib.Used(), n.Name())
}
