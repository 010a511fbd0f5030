package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): one # TYPE line per metric
// family, then the family's series sorted by label set. Histograms
// expose the standard cumulative _bucket/_sum/_count series with the
// le label merged into any series labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		labels string
		lines  func(family, labels string, w io.Writer) error
	}
	// family -> type -> sorted series
	fams := make(map[string]string) // family -> "counter"|"gauge"|"histogram"
	byFam := make(map[string][]series)

	r.mu.Lock()
	for name, c := range r.counters {
		fam, labels := splitName(name)
		v := c.Value()
		fams[fam] = "counter"
		byFam[fam] = append(byFam[fam], series{labels, func(fam, labels string, w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s %d\n", Name(fam, labels), v)
			return err
		}})
	}
	for name, g := range r.gauges {
		fam, labels := splitName(name)
		v := g.Value()
		fams[fam] = "gauge"
		byFam[fam] = append(byFam[fam], series{labels, func(fam, labels string, w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s %d\n", Name(fam, labels), v)
			return err
		}})
	}
	type hset struct {
		name string
		h    *Histogram
	}
	var hists []hset
	for name, h := range r.hists {
		hists = append(hists, hset{name, h})
	}
	r.mu.Unlock()

	for _, e := range hists {
		fam, labels := splitName(e.name)
		cum, count, sum := e.h.snapshotBuckets()
		fams[fam] = "histogram"
		byFam[fam] = append(byFam[fam], series{labels, func(fam, labels string, w io.Writer) error {
			for i, b := range latencyBuckets {
				le := Labels("le", formatBound(b))
				all := le
				if labels != "" {
					all = labels + "," + le
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", Name(fam+"_bucket", all), cum[i]); err != nil {
					return err
				}
			}
			inf := `le="+Inf"`
			if labels != "" {
				inf = labels + "," + inf
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", Name(fam+"_bucket", inf), cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", Name(fam+"_sum", labels), formatFloat(sum)); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s %d\n", Name(fam+"_count", labels), count)
			return err
		}})
	}

	names := make([]string, 0, len(byFam))
	for fam := range byFam {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, fams[fam]); err != nil {
			return err
		}
		ss := byFam[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			if err := s.lines(fam, s.labels, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatBound renders a bucket upper bound the way Prometheus expects
// (shortest float form, no exponent surprises for common values).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0" // keep floats recognizably floats
	}
	return s
}
