package eval

import (
	"fmt"
	"strings"
)

// Table1Row compares lines of code before and after compilation, the
// paper's Table 1. Input counts the MiniClick source; output counts the
// generated P4 program and the generated server program.
type Table1Row struct {
	Middlebox string
	InputLoC  int
	P4LoC     int
	ServerLoC int
}

// Table1 regenerates the paper's Table 1.
func Table1() ([]Table1Row, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, c := range compiled {
		rows = append(rows, Table1Row{
			Middlebox: c.Name,
			InputLoC:  countLoC(c.Source),
			P4LoC:     c.P4.LinesOfCode(),
			ServerLoC: c.Server.LinesOfCode(),
		})
	}
	return rows, nil
}

func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		trim := strings.TrimSpace(line)
		if trim != "" && !strings.HasPrefix(trim, "//") {
			n++
		}
	}
	return n
}

// FormatTable1 renders the rows like the paper's table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: lines of code before and after compilation\n")
	fmt.Fprintf(&b, "%-16s %10s %12s %12s\n", "Middlebox", "Input", "Output (P4)", "Output (srv)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %12d %12d\n", r.Middlebox, r.InputLoC, r.P4LoC, r.ServerLoC)
	}
	return b.String()
}
