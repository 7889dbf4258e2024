// Package serve is the model-serving layer: a versioned registry of fitted
// spca.Model snapshots plus a daemon front end (HTTP/JSON and a compact
// binary protocol) that projects client rows through the live model. The
// registry persists every published model with the exact-float, checksummed
// container discipline of internal/checkpoint, so a served model reloads
// bit-identically after a restart and a torn write is detected before it can
// be served.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spca"
	"spca/internal/checkpoint"
	"spca/internal/matrix"
)

// Entry is one immutable registry generation: a model, its version, and the
// file it persists in. Entries are shared between the registry and every
// in-flight request; nothing in an Entry is mutated after Publish.
type Entry struct {
	// Version is the registry generation, 1-based and strictly increasing.
	Version uint64
	// Model is the fitted model. Its projection cache is warmed at publish
	// time so the serving hot path never pays the first-call allocation.
	Model *spca.Model
	// Path is the model file backing this entry ("" for unpersisted entries
	// in in-memory registries).
	Path string
	// Bytes is the persisted file size including the checksum trailer.
	Bytes int64
}

// entryFile names version v's model file. The fixed-width decimal keeps
// lexical directory order equal to version order.
func entryFile(v uint64) string { return fmt.Sprintf("model-%08d.spcm", v) }

// state is the registry's atomically-swapped view: the live entry and the
// version index. Readers load one pointer and see a coherent pair — the
// entry a concurrent Publish installs is never observable with a stale map.
type state struct {
	live    *Entry
	byVer   map[uint64]*Entry
	ordered []*Entry // ascending version
}

// Registry is a versioned model store. Reads (Latest, Version, List) are
// lock-free pointer loads, safe from any goroutine and allocation-free;
// writes (Publish) serialize on a mutex, persist the model, then swap the
// whole view in one atomic store. A reader therefore never observes a torn
// generation: it either gets the old view or the new one.
type Registry struct {
	dir string // "" = in-memory only

	mu    sync.Mutex // serializes writers
	next  uint64     // next version to assign (guarded by mu)
	state atomic.Pointer[state]
}

// NewRegistry returns an empty registry. If dir is non-empty, published
// models persist there and existing model files are loaded, with the highest
// version becoming live (the daemon's warm-restart path). A file that fails
// verification is quarantined (renamed aside with a ".quarantined" suffix)
// rather than served, and any other load error fails the open. New versions
// number above every model file name found, quarantined ones included, so a
// version is never reused.
func NewRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	r.state.Store(&state{byVer: map[uint64]*Entry{}})
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	st := &state{byVer: map[uint64]*Entry{}}
	for _, f := range files {
		var v uint64
		if _, err := fmt.Sscanf(f.Name(), "model-%d.spcm", &v); err != nil || v == 0 {
			continue
		}
		r.next = max(r.next, v)
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".spcm") {
			continue
		}
		path := filepath.Join(dir, f.Name())
		m, err := spca.LoadModelFile(path)
		if errors.Is(err, spca.ErrBadSnapshot) {
			// The daemon keeps serving older generations, mirroring
			// checkpoint recovery.
			if _, err := checkpoint.Quarantine(path); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		e := &Entry{Version: v, Model: m, Path: path}
		if fi, err := f.Info(); err == nil {
			e.Bytes = fi.Size()
		}
		warm(m)
		st.byVer[v] = e
		if st.live == nil || v > st.live.Version {
			st.live = e
		}
	}
	st.ordered = orderedEntries(st.byVer)
	r.state.Store(st)
	return r, nil
}

// warm forces the model's projection cache so the first served request is
// already on the allocation-free path. A singular model surfaces its error
// on the first real Transform instead.
func warm(m *spca.Model) {
	dims, d := m.Dims()
	_, _ = m.TransformDenseInto(matrix.NewDense(1, d), matrix.NewDense(1, dims))
}

// Publish assigns the next version to m, persists it (atomic tmp+rename,
// checkpoint.WriteFile, as checkpoint.Save does), and swaps it in as the live model. Concurrent
// readers keep whatever entry they already hold; new Latest calls see the
// new generation.
func (r *Registry) Publish(m *spca.Model) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.next + 1
	e := &Entry{Version: v, Model: m}
	if r.dir != "" {
		path := filepath.Join(r.dir, entryFile(v))
		if err := checkpoint.WriteFile(path, m.Save); err != nil {
			return nil, fmt.Errorf("serve: persisting model v%d: %w", v, err)
		}
		if fi, err := os.Stat(path); err == nil {
			e.Bytes = fi.Size()
		}
		e.Path = path
	}
	warm(m)
	old := r.state.Load()
	st := &state{live: e, byVer: make(map[uint64]*Entry, len(old.byVer)+1)}
	for k, ov := range old.byVer {
		st.byVer[k] = ov
	}
	st.byVer[v] = e
	st.ordered = orderedEntries(st.byVer)
	r.next = v
	r.state.Store(st)
	return e, nil
}

// Latest returns the live entry, or nil for an empty registry.
func (r *Registry) Latest() *Entry { return r.state.Load().live }

// Version returns the entry pinned to version v (nil if unknown). Version 0
// means "latest" — the convention both wire protocols use.
func (r *Registry) Version(v uint64) *Entry {
	st := r.state.Load()
	if v == 0 {
		return st.live
	}
	return st.byVer[v]
}

// List returns all entries in ascending version order. The slice is shared
// and must not be mutated.
func (r *Registry) List() []*Entry { return r.state.Load().ordered }

func orderedEntries(byVer map[uint64]*Entry) []*Entry {
	out := make([]*Entry, 0, len(byVer))
	for _, e := range byVer {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}
