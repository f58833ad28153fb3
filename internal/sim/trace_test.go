package sim

import (
	"slices"
	"testing"
)

// createLog is a tracer that keeps its ResourceCreate calls; attached to an
// engine that does not run, it hears no other hook.
type createLog struct {
	Tracer
	created []resourceInfo
}

func (c *createLog) ResourceCreate(name string, capacity int) {
	c.created = append(c.created, resourceInfo{name, capacity})
}

// TestRegistryKeepsOneEntryPerName: a server built on every call (a read
// pipeline's window, a rebuild's) registers under the same name each time.
// The engine keeps one entry per name, with the largest capacity, so its
// list does not grow with the run, and a tracer attached afterwards hears
// one ResourceCreate for the name.
func TestRegistryKeepsOneEntryPerName(t *testing.T) {
	e := New()
	NewServer(e, "lock", 1)
	for i := range 1000 {
		NewServer(e, "pipe", 1+i%7)
	}
	if len(e.resources) != 2 {
		t.Fatalf("%d registry entries for two names", len(e.resources))
	}
	var log createLog
	e.SetTracer(&log)
	if want := []resourceInfo{{"lock", 1}, {"pipe", 7}}; !slices.Equal(log.created, want) {
		t.Fatalf("a tracer attached after 1,001 servers heard %v, want %v", log.created, want)
	}
}
