package sched

import (
	"fmt"
	"sort"
	"strings"
)

// GanttEntry is one executed interval on one processor, used both for
// static schedules and for runtime execution reports.
type GanttEntry struct {
	Proc  int
	Label string
	Start Time
	End   Time
}

// GanttChart renders execution intervals as ASCII art, one row per
// processor, width columns wide, like the paper's Figs. 4 and 6.
func GanttChart(entries []GanttEntry, procs int, horizon Time, width int) string {
	if width <= 0 {
		width = 80
	}
	if horizon.Sign() <= 0 {
		return "(empty Gantt chart)\n"
	}
	rows := make([][]GanttEntry, procs)
	for _, e := range entries {
		if e.Proc >= 0 && e.Proc < procs {
			rows[e.Proc] = append(rows[e.Proc], e)
		}
	}
	col := func(t Time) int {
		c := int(t.MulInt(int64(width)).Div(horizon).Floor())
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	var b strings.Builder
	for p := 0; p < procs; p++ {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		sort.Slice(rows[p], func(a, c int) bool { return rows[p][a].Start.Less(rows[p][c].Start) })
		for _, e := range rows[p] {
			from, to := col(e.Start), col(e.End)
			if to <= from {
				to = from + 1
				if to > width {
					from, to = width-1, width
				}
			}
			label := e.Label
			for i := from; i < to && i < width; i++ {
				if i-from < len(label) {
					line[i] = label[i-from]
				} else {
					line[i] = '#'
				}
			}
			if from < width {
				line[from] = '|'
				for i := from + 1; i < to && i-from-1 < len(label); i++ {
					line[i] = label[i-from-1]
				}
			}
		}
		fmt.Fprintf(&b, "M%-2d %s\n", p+1, string(line))
	}
	// Time axis.
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = ' '
	}
	b.WriteString("    " + string(axis) + "\n")
	fmt.Fprintf(&b, "    0%*s\n", width-1, horizon.String()+"s")
	return b.String()
}

// Gantt renders the static schedule as an ASCII chart over one frame.
func (s *Schedule) Gantt(width int) string {
	entries := make([]GanttEntry, 0, len(s.TG.Jobs))
	for i, j := range s.TG.Jobs {
		entries = append(entries, GanttEntry{
			Proc:  s.Assign[i].Proc,
			Label: j.Name(),
			Start: s.StartTime(i),
			End:   s.End(i),
		})
	}
	return GanttChart(entries, s.M, s.TG.Hyperperiod, width)
}

// Table renders the schedule as a sorted text table: one line per job with
// processor, start, end and deadline.
func (s *Schedule) Table() string {
	idx := make([]int, len(s.TG.Jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := s.Assign[idx[a]], s.Assign[idx[b]]
		if sa.Proc != sb.Proc {
			return sa.Proc < sb.Proc
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return idx[a] < idx[b]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-14s %10s %10s %10s\n", "proc", "job", "start", "end", "deadline")
	for _, i := range idx {
		j := s.TG.Jobs[i]
		fmt.Fprintf(&b, "M%-3d %-14s %10s %10s %10s\n",
			s.Assign[i].Proc+1, j.Name(),
			fmtMs(s.StartTime(i)), fmtMs(s.End(i)), fmtMs(j.Deadline))
	}
	return b.String()
}

func fmtMs(t Time) string {
	msVal := t.MulInt(1000)
	if msVal.IsInt() {
		return fmt.Sprintf("%dms", msVal.Num())
	}
	return fmt.Sprintf("%.3fms", msVal.Float64())
}
