// Command app references the fixture packages from another package.
package main

import (
	"fmt"

	"unref/internal/lib"
	"unref/pkg/facade"
)

func main() {
	var n lib.Namer = lib.Impl{}
	fmt.Println(lib.Used(), n.Name(), facade.New(facade.WithSize(2)).Size())
}
