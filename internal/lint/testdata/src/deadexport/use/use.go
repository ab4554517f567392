// Command use is the deadexport fixture's consumer: a main package, whose
// own declarations answer to no importer.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/src/deadexport/lib"
)

func main() {
	var b lib.Box[int]
	c := lib.Config{Live: lib.Used()}
	fmt.Println(c.Live+b.Get(), lib.Name("x"))
}
