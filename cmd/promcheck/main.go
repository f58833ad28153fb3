// Command promcheck validates a Prometheus text exposition file using only
// the standard library — CI's smoke check that raidbench -metrics and the
// raidfsd /metrics endpoint emit well-formed output without needing
// promtool in the image.
//
// Usage:
//
//	promcheck file.prom [file2.prom ...]
//
// Checked per file:
//
//   - every non-comment line parses as  name[{labels}] value  with a legal
//     metric name, legal label names, quoted label values, and a float value
//   - # TYPE lines declare counter, gauge, histogram, summary or untyped,
//     and repeated declarations for one family agree
//   - samples of a TYPE-declared family use the family's sample names (for
//     histograms: _bucket/_sum/_count)
//   - histogram buckets are cumulative per series: counts never decrease as
//     le rises, and every bucket run ends with le="+Inf" matching _count
//
// Exit status 0 when every file passes, 1 on any violation.
package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// checker accumulates one file's state and violations.
type checker struct {
	path   string
	types  map[string]string // family -> declared type
	errs   []string
	hists  map[string][]sample // histogram family -> its _bucket samples in file order
	counts map[string]sample   // histogram series (sans le) -> _count sample
}

func (c *checker) errorf(line int, format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf("%s:%d: %s", c.path, line, fmt.Sprintf(format, args...)))
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: promcheck file.prom [file...]")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		errs, err := check(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
			failed = true
			continue
		}
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, e)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			fmt.Printf("%s: OK\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// check runs every check over one file and returns its violations.
func check(path string) ([]string, error) {
	c := &checker{path: path, types: map[string]string{},
		hists: map[string][]sample{}, counts: map[string]sample{}}
	if err := c.checkFile(); err != nil {
		return nil, err
	}
	c.checkHistograms()
	return c.errs, nil
}

func (c *checker) checkFile() error {
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow errdrop read-only file
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, "# TYPE "):
			c.checkType(n, line)
		case strings.HasPrefix(line, "#"):
		default:
			c.checkSample(n, line)
		}
	}
	return sc.Err()
}

// checkType validates "# TYPE <name> <kind>" and records the family kind.
func (c *checker) checkType(n int, line string) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		c.errorf(n, "malformed TYPE line: %q", line)
		return
	}
	name, kind := fields[2], fields[3]
	if !nameRe.MatchString(name) {
		c.errorf(n, "illegal metric name %q", name)
	}
	switch kind {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		c.errorf(n, "unknown metric type %q for %s", kind, name)
	}
	if prev, ok := c.types[name]; ok && prev != kind {
		c.errorf(n, "family %s redeclared as %s (was %s)", name, kind, prev)
	}
	c.types[name] = kind
}

// checkSample validates one sample line and files histogram samples for the
// cumulativity pass.
func (c *checker) checkSample(n int, line string) {
	s, ok := c.parseSample(n, line)
	if !ok {
		return
	}
	fam, sub := c.family(s.name)
	if kind, declared := c.types[fam]; declared {
		switch kind {
		case "histogram":
			switch sub {
			case "_bucket":
				if _, ok := s.labels["le"]; !ok {
					c.errorf(n, "%s_bucket without le label", fam)
				}
				c.hists[fam] = append(c.hists[fam], s)
			case "_count":
				c.counts[seriesKey(fam, s.labels, "le")] = s
			case "_sum":
			default:
				c.errorf(n, "sample %s does not belong to histogram family %s", s.name, fam)
			}
		default:
			if sub != "" {
				c.errorf(n, "sample %s does not belong to %s family %s", s.name, kind, fam)
			}
		}
	}
	if kind := c.types[fam]; kind == "counter" && s.value < 0 {
		c.errorf(n, "counter %s has negative value %g", s.name, s.value)
	}
}

// family maps a sample name to its declared family plus the histogram
// suffix it used, if any.
func (c *checker) family(name string) (fam, sub string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if kind, ok := c.types[base]; ok && kind == "histogram" {
				return base, suffix
			}
		}
	}
	return name, ""
}

// parseSample splits "name{labels} value" into its parts.
func (c *checker) parseSample(n int, line string) (sample, bool) {
	s := sample{labels: map[string]string{}, line: n}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		c.errorf(n, "malformed sample line: %q", line)
		return s, false
	}
	s.name = rest[:i]
	if !nameRe.MatchString(s.name) {
		c.errorf(n, "illegal metric name %q", s.name)
		return s, false
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			c.errorf(n, "unterminated label set: %q", line)
			return s, false
		}
		if !c.parseLabels(n, rest[1:end], s.labels) {
			return s, false
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		c.errorf(n, "bad sample value %q: %v", strings.TrimSpace(rest), err)
		return s, false
	}
	s.value = v
	return s, true
}

// parseLabels parses `k="v",k2="v2"` into out.
func (c *checker) parseLabels(n int, in string, out map[string]string) bool {
	for in != "" {
		eq := strings.Index(in, "=")
		if eq < 0 {
			c.errorf(n, "label pair missing '=': %q", in)
			return false
		}
		key := in[:eq]
		if !labelRe.MatchString(key) {
			c.errorf(n, "illegal label name %q", key)
			return false
		}
		in = in[eq+1:]
		if len(in) == 0 || in[0] != '"' {
			c.errorf(n, "label %s value not quoted", key)
			return false
		}
		end := 1
		for end < len(in) && (in[end] != '"' || in[end-1] == '\\') {
			end++
		}
		if end >= len(in) {
			c.errorf(n, "unterminated label value for %s", key)
			return false
		}
		if _, dup := out[key]; dup {
			c.errorf(n, "duplicate label %s", key)
			return false
		}
		out[key] = in[1:end]
		in = in[end+1:]
		if strings.HasPrefix(in, ",") {
			in = in[1:]
		} else if in != "" {
			c.errorf(n, "junk after label value: %q", in)
			return false
		}
	}
	return true
}

// seriesKey identifies one series by family plus its labels minus the named
// exclusions, rendered deterministically.
func seriesKey(fam string, labels map[string]string, exclude string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != exclude {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(fam)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, labels[k])
	}
	return b.String()
}

// checkHistograms verifies every histogram series' buckets are cumulative
// in file order, end with le="+Inf", and agree with _count.
func (c *checker) checkHistograms() {
	type state struct {
		last    float64
		lastLE  float64
		sawInf  bool
		infVal  float64
		anyLine int
	}
	series := map[string]*state{}
	var order []string
	fams := make([]string, 0, len(c.hists))
	for fam := range c.hists {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		for _, s := range c.hists[fam] {
			key := seriesKey(fam, s.labels, "le")
			st, ok := series[key]
			if !ok {
				st = &state{lastLE: -1}
				series[key] = st
				order = append(order, key)
			}
			st.anyLine = s.line
			le := s.labels["le"]
			if le == "+Inf" {
				st.sawInf = true
				st.infVal = s.value
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					c.errorf(s.line, "series %s: bad le %q", key, le)
					continue
				}
				if st.sawInf {
					c.errorf(s.line, "series %s: bucket after le=\"+Inf\"", key)
				}
				if v <= st.lastLE {
					c.errorf(s.line, "series %s: le %g not increasing", key, v)
				}
				st.lastLE = v
			}
			if s.value < st.last {
				c.errorf(s.line, "series %s: bucket count decreased (%g -> %g)", key, st.last, s.value)
			}
			st.last = s.value
		}
	}
	sort.Strings(order)
	for _, key := range order {
		st := series[key]
		if !st.sawInf {
			c.errorf(st.anyLine, "series %s: no le=\"+Inf\" bucket", key)
			continue
		}
		if cnt, ok := c.counts[key]; ok && cnt.value != st.infVal {
			c.errorf(cnt.line, "series %s: _count %g != +Inf bucket %g", key, cnt.value, st.infVal)
		}
	}
}
