// Command nop does nothing. The benchmark launches it next to each set-up
// launch of the program under test: its CPU time is the host's cost of
// starting a Go process, which drifts with the host and which no change to
// the repository can move (see perfbench/README.md, "Measuring on a shared
// host").
package main

func main() {}
