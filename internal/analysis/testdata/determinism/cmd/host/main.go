// Command host records the machine it runs on: a main package may read
// the width, so determinism leaves it alone.
package main

import (
	"fmt"
	"runtime"
)

func main() {
	fmt.Println(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
