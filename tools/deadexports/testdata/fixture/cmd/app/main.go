// Command app is the fixture's product code.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/a"
)

func main() {
	s, err := a.Run(flag.CommandLine)
	fmt.Println(s, err)
}
