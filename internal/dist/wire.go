package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// WireVersion identifies the payload encoding below. It leads HelloRes,
// whose layout is the same in every version, so two peers can always
// read each other's version and the coordinator rejects a mismatch by
// name at hello instead of misparsing a work frame mid-query. (Version
// 1 was the JSON payload encoding, which carried no version; version 4
// ends every exchange with ftEnd and keeps the connection; version 5
// ranks a top-k in one rank exchange per shard; version 6 drops
// RegionReads from node stats.)
const WireVersion = 6

// Payload encoding. A frame payload is its message's fields in order,
// little-endian, with no tags, padding or self-description:
//
//	int, int64, enum   8 bytes, two's complement
//	float64            8 bytes, IEEE-754 bits
//	bool               1 byte, exactly 0 or 1
//	string             u32 byte length, then the bytes
//	slice              u32 element count, then the elements
//	optional int64     bool presence, then the value only when present
//
// Decoders read bytes this process did not write, so every one checks a
// declared count or length against the bytes that remain before it
// allocates, rejects truncated payloads and trailing bytes, and is
// canonical: a payload it accepts re-encodes to exactly the same bytes.

// wireMsg is a frame payload. Its wire method lists the fields in order;
// the one list both encodes and decodes, so the directions cannot drift.
// Encoding must only read the message: concurrent attempts (hedges,
// shards) encode shared request fields at once.
type wireMsg interface {
	wire(w *wire)
}

// wire is the codec state. Encoding, b is the output; decoding, b is the
// input not yet read and err the first failure, after which b stays
// empty and reads leave their targets untouched.
type wire struct {
	b   []byte
	dec bool
	err error
}

// Minimum encoded sizes of the slice elements, for the count check.
const (
	idSize    = 8
	boolSize  = 1
	candSize  = 4*8 + 2*boolSize
	itemSize  = 3 * 8
	scoreSize = 2 * 8
	termSize  = 4 + 7*8
	cmpSize   = 3 * 8
	readsSize = 6 * 8
	pushSize  = 2 * 8
	groupSize = 4 * 8
	optSize   = 8
	placeSize = 2*8 + boolSize
)

var errTruncated = errors.New("payload truncated")

func (w *wire) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.b = nil
}

// next consumes n input bytes, or fails and returns nil.
func (w *wire) next(n int) []byte {
	if len(w.b) < n {
		w.fail(errTruncated)
		return nil
	}
	p := w.b[:n]
	w.b = w.b[n:]
	return p
}

func (w *wire) u32(v *uint32) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint32(w.b, *v)
	} else if p := w.next(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (w *wire) i64(v *int64) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*v))
	} else if p := w.next(8); p != nil {
		*v = int64(binary.LittleEndian.Uint64(p))
	}
}

func (w *wire) f64(v *float64) {
	x := int64(math.Float64bits(*v))
	w.i64(&x)
	if w.dec {
		*v = math.Float64frombits(uint64(x))
	}
}

func (w *wire) bool(v *bool) {
	if !w.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		w.b = append(w.b, b)
	} else if p := w.next(1); p != nil {
		if p[0] > 1 {
			w.fail(fmt.Errorf("bool byte 0x%02x", p[0]))
		}
		*v = p[0] == 1
	}
}

// count codes a slice length. Decoding, it checks that many elements of
// at least minSize bytes fit in the remaining input, before the caller
// allocates for them.
func (w *wire) count(n, minSize int) int {
	v := uint32(n)
	w.u32(&v)
	if w.dec && uint64(v)*uint64(minSize) > uint64(len(w.b)) {
		w.fail(fmt.Errorf("%d elements declared with %d bytes left", v, len(w.b)))
		return 0
	}
	return int(v)
}

func (w *wire) str(s *string) {
	n := w.count(len(*s), 1)
	if !w.dec {
		w.b = append(w.b, *s...)
	} else {
		*s = string(w.next(n))
	}
}

// num codes an int-kinded value in 8 bytes; decoding rejects one the
// platform's int cannot hold.
func num[T ~int](w *wire, v *T) {
	x := int64(*v)
	w.i64(&x)
	if w.dec {
		if int64(int(x)) != x {
			w.fail(fmt.Errorf("integer %d overflows int", x))
		}
		*v = T(x)
	}
}

// slice codes a counted slice whose elements are at least minSize bytes
// each. An empty slice decodes as nil.
func slice[T any](w *wire, s *[]T, minSize int, elem func(*wire, *T)) {
	n := w.count(len(*s), minSize)
	if w.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(w, &(*s)[i])
	}
}

// encodeMsg appends m's payload to buf.
func encodeMsg(buf []byte, m wireMsg) []byte {
	w := wire{b: buf}
	m.wire(&w)
	return w.b
}

// decodeMsg decodes payload into the zero message m.
func decodeMsg(payload []byte, m wireMsg) error {
	w := wire{b: payload, dec: true}
	m.wire(&w)
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("%d trailing bytes", len(w.b))
	}
	return w.err
}

// frameBufs holds writeMsg's encode buffers: a bounds answer of 1 500
// candidates (51 KB) encodes in less than half the time into a reused
// buffer as into one grown from empty. A buffer grown past
// maxPooledFrame is left to the collector.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// writeMsg encodes m into one frame in a pooled buffer, which it takes
// back after the write, and returns the wire size.
func writeMsg(w io.Writer, typ byte, m wireMsg) (int, error) {
	bp := frameBufs.Get().(*[]byte)
	var hdr [frameHeaderLen]byte
	// Room for the CRC writeFrame appends, so the buffer kept is the
	// one written.
	buf := slices.Grow(encodeMsg(append((*bp)[:0], hdr[:]...), m), frameCRCLen)
	n, err := writeFrame(w, typ, buf)
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		frameBufs.Put(bp)
	}
	return n, err
}

// readMsg reads one frame of the expected type into m, returning the
// wire size. An ftError frame is surfaced as an *errRemote; any other
// unexpected type is a protocol error.
func readMsg(r io.Reader, want byte, max int, m wireMsg) (int, error) {
	typ, payload, n, err := ReadFrame(r, max)
	if err != nil {
		return n, err
	}
	if typ == ftError {
		return n, remoteErr(payload)
	}
	if typ != want {
		return n, fmt.Errorf("dist: expected frame type 0x%02x, got 0x%02x", want, typ)
	}
	if err := decodeMsg(payload, m); err != nil {
		return n, fmt.Errorf("dist: decode frame type 0x%02x: %w", typ, err)
	}
	return n, nil
}

// remoteErr decodes an ftError payload into the *errRemote it reports.
func remoteErr(payload []byte) error {
	var we wireError
	if err := decodeMsg(payload, &we); err != nil {
		return fmt.Errorf("dist: decode error frame: %w", err)
	}
	return &errRemote{msg: we.Msg, bootID: we.BootID}
}

func (m *helloReq) wire(*wire) {}

func (m *HelloRes) wire(w *wire) {
	num(w, &m.Wire) // first in every version: see WireVersion
	w.str(&m.Node)
	w.str(&m.BootID)
	num(w, &m.NumMasks)
	num(w, &m.MaskW)
	num(w, &m.MaskH)
	num(w, &m.Shards)
	w.str(&m.Codec)
	num(w, &m.GenVersion)
}

func (m *filterReq) wire(w *wire) {
	w.str(&m.BootID)
	slice(w, &m.IDs, idSize, (*wire).i64)
	slice(w, &m.Terms, termSize, codeTerm)
	slice(w, &m.Pred, cmpSize, codeCmp)
	w.i64(&m.DeadlineMS)
}

func (m *filterRes) wire(w *wire) {
	slice(w, &m.Keep, boolSize, (*wire).bool)
	codeStats(w, &m.Stats)
	m.Node.wire(w)
}

func (m *boundsReq) wire(w *wire) {
	w.str(&m.BootID)
	slice(w, &m.IDs, idSize, (*wire).i64)
	codeTerm(w, &m.Term)
	w.i64(&m.DeadlineMS)
}

func (m *boundsRes) wire(w *wire) {
	slice(w, &m.Cands, candSize, func(w *wire, c *core.CandBound) {
		w.i64(&c.ID)
		w.i64(&c.B.Lo)
		w.i64(&c.B.Hi)
		w.bool(&c.Known)
		w.i64(&c.Score)
		w.bool(&c.Indexed)
	})
	codeStats(w, &m.Stats)
	m.Node.wire(w)
}

func (m *verifyReq) wire(w *wire) {
	w.str(&m.BootID)
	slice(w, &m.Items, itemSize, func(w *wire, it *core.VerifyItem) {
		w.i64(&it.ID)
		w.i64(&it.B.Lo)
		w.i64(&it.B.Hi)
	})
	codeTerm(w, &m.Term)
	g := &m.Gate
	num(w, &g.Ord)
	num(w, &g.K)
	slice(w, &g.Best, pushSize, func(w *wire, t *core.Scored) { (*tauPush)(t).wire(w) })
	num(w, &g.Agg)
	slice(w, &g.Groups, groupSize, func(w *wire, sg *core.GateGroup) {
		w.i64(&sg.Key)
		num(w, &sg.Off)
		num(w, &sg.N)
		num(w, &sg.Pending)
	})
	slice(w, &g.Opt, optSize, (*wire).f64)
	slice(w, &g.Items, placeSize, func(w *wire, it *core.GateItem) {
		num(w, &it.G)
		num(w, &it.M)
		w.bool(&it.Indexed)
	})
	w.i64(&m.DeadlineMS)
}

func (m *rankReq) wire(w *wire) {
	w.str(&m.BootID)
	slice(w, &m.IDs, idSize, (*wire).i64)
	codeTerm(w, &m.Term)
	num(w, &m.K)
	num(w, &m.Ord)
	w.i64(&m.DeadlineMS)
}

func (m *scoreChunk) wire(w *wire) {
	slice(w, (*[]idxScore)(m), scoreSize, func(w *wire, s *idxScore) {
		num(w, &s.Idx)
		w.i64(&s.Score)
	})
}

func (m *tauPush) wire(w *wire) {
	w.i64(&m.ID)
	w.f64(&m.Score)
}

func (m *verifyRes) wire(w *wire) {
	codeStats(w, &m.Stats)
	m.Node.wire(w)
}

func (m *wireError) wire(w *wire) {
	w.str(&m.Msg)
	w.str(&m.BootID)
}

func (m *nodeInfo) wire(w *wire) {
	w.str(&m.Node)
	w.str(&m.BootID)
	slice(w, &m.Reads, readsSize, func(w *wire, r *store.ReadStats) {
		w.i64(&r.MasksLoaded)
		w.i64(&r.BytesRead)
		w.i64(&r.CacheHits)
		w.i64(&r.CacheMisses)
		w.i64(&r.CacheEvicted)
		w.i64(&r.TailLoads)
	})
}

func codeTerm(w *wire, t *wireTerm) {
	w.str(&t.Name)
	num(w, &t.Spec.Kind)
	num(w, &t.Spec.Rect.X0)
	num(w, &t.Spec.Rect.Y0)
	num(w, &t.Spec.Rect.X1)
	num(w, &t.Spec.Rect.Y1)
	w.f64(&t.Range.Lo)
	w.f64(&t.Range.Hi)
}

func codeCmp(w *wire, c *wireCmp) {
	num(w, &c.T)
	num(w, &c.Op)
	w.i64(&c.C)
}

func codeStats(w *wire, s *core.Stats) {
	num(w, &s.Targets)
	num(w, &s.IndexHits)
	num(w, &s.AcceptedByBounds)
	num(w, &s.RejectedByBounds)
	num(w, &s.Loaded)
}
