package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Layer attribution of CPU-profile samples. Each sample goes to the
// layer of its innermost frame in a named coma/internal package; runtime
// work that is not a library call on a layer's behalf is split into
// scheduling, stack growth, garbage collection and allocation.

// layerPackages are the coma/internal packages that are layers of their
// own. Besides them a sample can go to one of rtBuckets, which split the
// Go runtime, or to "other": everything with no layer frame, that is the
// benchmark's own clients and helpers and the standard library they call.
var layerPackages = []string{"sim", "mesh", "coherence", "am", "directory", "cache", "node",
	"workload", "config", "core", "machine", "obs", "server"}

var rtBuckets = []string{"rt.sched", "rt.stack", "rt.gc", "rt.alloc"}

const internalPrefix = "coma/internal/"

// layerOfPackage maps an import path below coma/internal to its layer;
// "" for packages that are not a layer of their own (proto, stats,
// inspect, fault, ...): their samples go to the nearest caller that is.
func layerOfPackage(pkg string) string {
	switch {
	case pkg == "experiments/runner": // comad's job pool
		return "server"
	case strings.HasPrefix(pkg, "obs/"):
		return "obs"
	case strings.HasPrefix(pkg, "server/"):
		return "server"
	}
	if slices.Contains(layerPackages, pkg) {
		return pkg
	}
	return ""
}

// packageOf returns the import path of a symbol name such as
// "coma/internal/coherence.(*Engine).readMiss.func1".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// Runtime function-name markers, matched against the name after the
// package qualifier. Order of the checks in runtimeBucket matters: GC
// assist runs inside mallocgc and is GC work; stack copies made by the
// GC's stack shrinking sit under GC frames.
var (
	gcMarkers = []string{"gc", "markroot", "scanobject", "scanblock", "scanstack", "scanframe",
		"greyobject", "findObject", "wbBuf", "bulkBarrier", "bgsweep", "sweepone", "(*sweepLocked)",
		"(*mspan).sweep", "bgscavenge", "(*scavenger", "(*gcWork)", "(*gcControllerState)",
		"markBits", "_GC"}
	stackMarkers = []string{"newstack", "morestack", "copystack", "shrinkstack", "stackalloc",
		"stackfree", "stackcache", "stackpool", "adjustframe", "adjustpointers", "adjustsudogs",
		"adjustctxt", "adjustdefers"}
	allocMarkers = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"makemap", "makechan", "(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast", "rawstring",
		"rawbyteslice"}
	schedMarkers = []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"newproc", "goexit", "gogo", "mcall", "execute", "runq", "stealWork", "stopm", "startm",
		"wakep", "handoffp", "note", "futex", "lock2", "unlock2", "usleep", "osyield", "procyield",
		"sysmon", "casgstatus", "gosched", "chansend", "chanrecv", "selectgo", "semacquire",
		"semrelease", "resetspinning", "checkTimers", "netpoll", "mPark", "_System", "_ExternalCode",
		"_VDSO"}
)

func hasMarker(fn string, markers []string) bool {
	name := strings.TrimPrefix(fn[len(packageOf(fn)):], ".")
	for _, m := range markers {
		if strings.HasPrefix(name, m) {
			return true
		}
	}
	return false
}

// runtimeBucket classifies a sample's runtime frames (leaf first, up to
// the first non-runtime frame). whole reports that the stack has no
// other frames, as for a scheduler or GC worker goroutine. It returns ""
// for runtime code that is a library call made by its caller (map
// access, memmove, hashing): that time belongs to the caller's layer.
func runtimeBucket(frames []string, whole bool) string {
	for _, set := range []struct {
		bucket  string
		markers []string
	}{{"rt.gc", gcMarkers}, {"rt.stack", stackMarkers}, {"rt.alloc", allocMarkers}, {"rt.sched", schedMarkers}} {
		for _, fn := range frames {
			if hasMarker(fn, set.markers) {
				return set.bucket
			}
		}
	}
	if whole {
		return "rt.sched"
	}
	return ""
}

// classify returns the bucket of one sample's stack (leaf first): a
// layer name, one of rtBuckets, or "other".
func classify(stack []string) string {
	n := 0
	for n < len(stack) && isRuntime(stack[n]) {
		n++
	}
	if n > 0 {
		if b := runtimeBucket(stack[:n], n == len(stack)); b != "" {
			return b
		}
	}
	for _, fn := range stack[n:] {
		if strings.HasPrefix(fn, internalPrefix) {
			if l := layerOfPackage(strings.TrimPrefix(packageOf(fn), internalPrefix)); l != "" {
				return l
			}
		}
		// comad's HTTP front end: request parsing and response writing
		// on a server connection, outside any handler frame.
		if strings.HasPrefix(fn, "net/http.(*conn).serve") {
			return "server"
		}
	}
	return "other"
}

// attribution is sample weight per bucket.
type attribution struct {
	weight map[string]float64
	total  float64
}

// frac returns a bucket's share of all samples; "rt" sums the runtime
// buckets.
func (a attribution) frac(bucket string) float64 {
	if bucket == "rt" {
		var w float64
		for _, b := range rtBuckets {
			w += a.weight[b]
		}
		return ratio(w, a.total)
	}
	return ratio(a.weight[bucket], a.total)
}

// attribute decodes a runtime/pprof CPU profile (gzip'd profile.proto)
// and charges every sample's CPU time to its bucket.
func attribute(profile []byte) (attribution, error) {
	stacks, weights, err := decodeProfile(profile)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{weight: make(map[string]float64)}
	for i, st := range stacks {
		a.weight[classify(st)] += weights[i]
		a.total += weights[i]
	}
	if a.total == 0 {
		return a, errors.New("profile holds no samples")
	}
	return a, nil
}

// decodeProfile returns each sample's stack of function names (leaf
// first, inlined frames expanded) and its last value (CPU nanoseconds
// for a CPU profile). It reads only the profile.proto fields it needs:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(profile []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sampleRec
		locFns  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		fnName  = make(map[uint64]uint64)   // function id -> string index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sampleRec
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendRepeated(s.locs, v, b)
				case 2:
					s.values = appendRepeated(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]float64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				st = append(st, strs[idx])
			}
		}
		if len(s.values) == 0 {
			continue
		}
		stacks = append(stacks, st)
		weights = append(weights, float64(s.values[len(s.values)-1]))
	}
	return stacks, weights, nil
}

// appendRepeated appends a repeated integer field given either one
// varint (v, b == nil) or a packed run of varints (b).
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for every field of a protobuf message: varint
// fields pass their value (b nil), length-delimited fields their bytes.
// Fixed-width fields are skipped; profile.proto uses none this decoder
// reads.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
