// Command bench stands for the benchmark harness: its calls earn no credit.
package main

import "fixture/internal/a"

func main() {
	a.BenchOnly()
	a.Pinned()
	a.Uncalled()
}
