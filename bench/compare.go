package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload, every end-to-end metric of report a
// (the baseline) and report b with the relative change in the worse
// direction and the metric's bound. A change beyond the bound is a breach. A
// change within the bound is only called ok when the segment spread of both
// runs is within the bound too; otherwise it is unresolved, not unchanged. It
// returns the process exit code: 1 on a breach or when b fails more
// operations than a.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Meta.Scale != b.Meta.Scale || a.Meta.Seconds != b.Meta.Seconds {
		fmt.Fprintf(w, "warning: runs differ in scale or length (%s/%gs vs %s/%gs)\n", a.Meta.Scale, a.Meta.Seconds, b.Meta.Scale, b.Meta.Seconds)
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	exit := 0
	fmt.Fprintf(w, "%-11s %-11s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			continue
		}
		for _, d := range endToEndDefs {
			ma, okA := ra.EndToEnd[d.Name]
			mb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(ma.Segments), spread(mb.Segments))
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "BREACH"
				exit = 1
			case sp > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-11s %-11s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				ra.Name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, 100*sp, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-11s failed operations rose from %d to %d  BREACH\n", ra.Name, ra.Failed, rb.Failed)
			exit = 1
		}
	}
	return exit
}
