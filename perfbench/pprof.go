package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile.proto format, enough to charge
// each sample to a layer. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

type profLocation struct {
	funcIDs []uint64 // innermost first (inlined frames precede their caller)
}

type profile struct {
	sampleTypes []string
	samples     []profSample
	locations   map[uint64]profLocation
	funcNames   map[uint64]int64 // function id -> string table index
	strings     []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a (gzip-compressed or raw) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		data = raw
	}
	p := &profile{locations: map[uint64]profLocation{}, funcNames: map[uint64]int64{}}
	var typeIdx [][2]int64
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t[0] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s profSample
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, bb)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, bb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var loc profLocation
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n2, _ int, v2 uint64, _ []byte) error {
						if n2 == 1 {
							loc.funcIDs = append(loc.funcIDs, v2)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = loc
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(t[0]))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// appendPacked appends a repeated varint field that may be packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// eachField walks the top-level fields of one protobuf message.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

const repoPrefix = "github.com/smartgrid/aria/"

// layerOf maps a function name to the repo layer that owns it, or "" for
// code outside the repo. mainLayer names the binary's own main package.
func layerOf(fn, mainLayer string) string {
	if strings.HasPrefix(fn, "main.") {
		return mainLayer
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	switch {
	case strings.HasPrefix(rest, "internal/"):
		rest = rest[len("internal/"):]
	case strings.HasPrefix(rest, "perfbench"):
		return "bench"
	case strings.HasPrefix(rest, "cmd/"):
		rest = rest[len("cmd/"):]
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// selfByLayer charges each sample's value (column valueIdx) to the
// innermost frame that belongs to a repo package, so library, allocator
// and syscall time counts against the layer that caused it. Samples with
// no repo frame (GC workers, the scheduler) are charged to "runtime".
func (p *profile) selfByLayer(valueIdx int, mainLayer string) (map[string]float64, float64) {
	out := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[valueIdx])
		total += v
		layer := "runtime"
	walk:
		for _, id := range s.locs {
			for _, fid := range p.locations[id].funcIDs {
				if l := layerOf(p.str(p.funcNames[fid]), mainLayer); l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += v
	}
	return out, total
}

// sampleIndex finds a sample type column by name (e.g. "cpu", "alloc_space").
func (p *profile) sampleIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}
