package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Registry is a copy-on-write collection of named, immutable surface
// sets. The serving hot paths (predict/sweep/optimize) read a snapshot
// pointer with one atomic load — no lock, no reader-counter cache-line
// contention under heavy concurrency — while writers (model upload,
// delete, finished builds) copy the map under a mutex and swap the
// pointer. In-flight requests keep the version they started with; new
// requests see the new one: hot-reload without a stall.
type Registry struct {
	mu   sync.Mutex // serializes writers; readers never take it
	snap atomic.Pointer[registrySnap]
}

type registrySnap struct {
	models map[string]*core.SavedSurfaces
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&registrySnap{models: map[string]*core.SavedSurfaces{}})
	return r
}

// Get fetches a model by name. Lock-free.
func (r *Registry) Get(name string) (*core.SavedSurfaces, bool) {
	ss, ok := r.snap.Load().models[name]
	return ss, ok
}

// mutate applies fn to a private copy of the model map and publishes it.
func (r *Registry) mutate(fn func(models map[string]*core.SavedSurfaces)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load().models
	next := make(map[string]*core.SavedSurfaces, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	fn(next)
	r.snap.Store(&registrySnap{models: next})
}

// Set registers (or atomically replaces) a model. The surfaces must not
// be mutated after registration.
func (r *Registry) Set(name string, ss *core.SavedSurfaces) {
	r.mutate(func(models map[string]*core.SavedSurfaces) {
		models[name] = ss
	})
}

// Delete removes a model, reporting whether it existed.
func (r *Registry) Delete(name string) bool {
	var existed bool
	r.mutate(func(models map[string]*core.SavedSurfaces) {
		_, existed = models[name]
		delete(models, name)
	})
	return existed
}

// Names lists the registered model names, sorted. Lock-free.
func (r *Registry) Names() []string {
	models := r.snap.Load().models
	out := make([]string, 0, len(models))
	for name := range models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered models. Lock-free.
func (r *Registry) Len() int {
	return len(r.snap.Load().models)
}

// LoadDir registers every *.json saved-surfaces file in dir under its
// basename (sans extension). It returns the loaded names; a file that
// fails to decode aborts the load, since serving a partial registry
// silently is worse than failing fast at startup.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading model dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
		ss, err := core.DecodeSurfaces(data)
		if err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", path, err)
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		r.Set(name, ss)
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
