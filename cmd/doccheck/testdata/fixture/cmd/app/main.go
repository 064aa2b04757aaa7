// Command app calls into the fixture.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	fmt.Println(a.Called(), a.T(1), a.Measure(a.Square(2)), a.Limit)
}
