package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Frame types. A connection carries exactly one request: the client
// dials, writes the request frame, and reads response frames until the
// terminal one (ftError, or the request's *Res type). Verify requests
// are the only streaming exchange: the node emits ftScores frames as
// exact values land and accepts ftTau frames inbound at any time, then
// terminates with ftVerifyRes.
const (
	ftError byte = iota + 1
	ftHello
	ftHelloRes
	ftFilter
	ftFilterRes
	ftBounds
	ftBoundsRes
	ftVerify
	ftScores
	ftTau
	ftVerifyRes
)

// errNotDistributable marks a plan element that cannot cross a process
// boundary (a hand-built CPTerm without a RegionSpec, or a predicate
// that is not a conjunction of CP comparisons). Facade-compiled plans
// never produce one.
var errNotDistributable = errors.New("dist: plan element is not distributable")

// wireTerm is a CPTerm in serializable form. Region closures cannot
// cross the wire; the node reconstructs an equivalent RegionFn from
// Spec against its own copy of the catalog.
type wireTerm struct {
	Name  string          `json:"name,omitempty"`
	Spec  core.RegionSpec `json:"spec"`
	Range core.ValueRange `json:"range"`
}

// wireCmp is one CP comparison of a conjunctive predicate.
type wireCmp struct {
	T  core.Term `json:"t"`
	Op core.Op   `json:"op"`
	C  int64     `json:"c"`
}

// toWireTerms serializes facade-built terms, rejecting any without a
// region spec.
func toWireTerms(terms []core.CPTerm) ([]wireTerm, error) {
	out := make([]wireTerm, len(terms))
	for i, t := range terms {
		if t.Spec.Kind == core.RegionNone {
			return nil, fmt.Errorf("dist: term %q has no region spec: %w", t.String(), errNotDistributable)
		}
		out[i] = wireTerm{Name: t.Name, Spec: t.Spec, Range: t.Range}
	}
	return out, nil
}

// toWirePred flattens a conjunction of CP comparisons (the only
// predicate shape the SQL facade produces) into wire form. nil means
// "always true".
func toWirePred(pred core.Pred) ([]wireCmp, error) {
	switch p := pred.(type) {
	case nil:
		return nil, nil
	case core.Cmp:
		return []wireCmp{{T: p.T, Op: p.Op, C: p.C}}, nil
	case core.And:
		out := make([]wireCmp, 0, len(p))
		for _, sub := range p {
			cs, err := toWirePred(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("dist: predicate %s: %w", pred.String(), errNotDistributable)
	}
}

// fromWirePred rebuilds the engine predicate on the node.
func fromWirePred(cs []wireCmp) core.Pred {
	and := make(core.And, len(cs))
	for i, c := range cs {
		and[i] = core.Cmp{T: c.T, Op: c.Op, C: c.C}
	}
	return and
}

// helloReq carries nothing; the response identifies the node and the
// dataset it opened so the coordinator can reject a mismatched member
// before routing any work to it.
type helloReq struct{}

// HelloRes describes one node and its opened dataset. msinspect
// renders it as per-node health; the coordinator compares the dataset
// fields against its own before the node serves its first request.
type HelloRes struct {
	Node string `json:"node"`
	// BootID changes on every node process start; the coordinator uses
	// it to reset its cumulative read-stats baseline for the node.
	BootID     string `json:"boot_id"`
	NumMasks   int    `json:"num_masks"`
	MaskW      int    `json:"mask_w"`
	MaskH      int    `json:"mask_h"`
	Shards     int    `json:"shards"`
	Codec      string `json:"codec,omitempty"`
	GenVersion int    `json:"gen_version,omitempty"`
}

// nodeInfo trails every work response: the responding node's identity
// plus its cumulative per-shard read counters, from which the
// coordinator folds deltas into the facade's remote-read stats.
type nodeInfo struct {
	Node   string            `json:"node"`
	BootID string            `json:"boot_id"`
	Reads  []store.ReadStats `json:"reads"`
}

// filterReq asks a node to run the filter stage over ids it owns.
// DeadlineMS, when positive, bounds the node-side work relative to
// request receipt (the coordinator derives it from its ctx deadline).
type filterReq struct {
	IDs        []int64    `json:"ids"`
	Terms      []wireTerm `json:"terms"`
	Pred       []wireCmp  `json:"pred,omitempty"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
}

type filterRes struct {
	Keep  []bool     `json:"keep"`
	Stats core.Stats `json:"stats"`
	Node  nodeInfo   `json:"node"`
}

// boundsReq asks for the candidate bounds of the (single) score term
// over ids the node owns.
type boundsReq struct {
	IDs        []int64  `json:"ids"`
	Term       wireTerm `json:"term"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

type boundsRes struct {
	Cands []core.CandBound `json:"cands"`
	Stats core.Stats       `json:"stats"`
	Node  nodeInfo         `json:"node"`
}

// verifyReq asks a node to exactly verify items it owns, streaming
// scores back as they land; Terms holds the one score term, so each
// streamed row has one value. Gated requests consult a τ gate before
// each mask load: Tau seeds it (when the coordinator's tracker is
// already full) and inbound ftTau frames advance it mid-request.
type verifyReq struct {
	Items      []core.VerifyItem `json:"items"`
	Terms      []wireTerm        `json:"terms"`
	Ord        core.Order        `json:"ord"`
	Gated      bool              `json:"gated"`
	Tau        *int64            `json:"tau,omitempty"`
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
}

// scoreChunk is one batch of exact results: Idx[i] is the item's index
// in verifyReq.Items, Vals[i] its exact per-term values.
type scoreChunk struct {
	Idx  []int     `json:"idx"`
	Vals [][]int64 `json:"vals"`
}

// tauUpdate pushes a tightened global τ to an in-flight verify.
type tauUpdate struct {
	Tau int64 `json:"tau"`
}

// verifyRes terminates a verify stream. Skipped lists the item indexes
// the node's τ gate pruned (their masks were never loaded).
type verifyRes struct {
	Skipped []int      `json:"skipped,omitempty"`
	TauRecv int64      `json:"tau_recv,omitempty"`
	Stats   core.Stats `json:"stats"`
	Node    nodeInfo   `json:"node"`
}

// wireError is the payload of an ftError frame.
type wireError struct {
	Msg string `json:"msg"`
}

// errRemote wraps a node-reported failure on the coordinator side.
type errRemote struct {
	msg string
}

func (e *errRemote) Error() string { return "dist: remote error: " + e.msg }

// writeMsg JSON-encodes v into one frame, returning the wire size.
func writeMsg(w io.Writer, typ byte, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("dist: encode frame type 0x%02x: %w", typ, err)
	}
	return WriteFrame(w, typ, payload)
}

// readMsg reads one frame of the expected type into v, returning the
// wire size. An ftError frame is surfaced as an *errRemote; any other
// unexpected type is a protocol error.
func readMsg(r io.Reader, want byte, max int, v any) (int, error) {
	typ, payload, n, err := ReadFrame(r, max)
	if err != nil {
		return n, err
	}
	if typ == ftError {
		var we wireError
		if err := json.Unmarshal(payload, &we); err != nil {
			return n, fmt.Errorf("dist: decode error frame: %w", err)
		}
		return n, &errRemote{msg: we.Msg}
	}
	if typ != want {
		return n, fmt.Errorf("dist: expected frame type 0x%02x, got 0x%02x", want, typ)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return n, fmt.Errorf("dist: decode frame type 0x%02x: %w", typ, err)
	}
	return n, nil
}
