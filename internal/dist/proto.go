package dist

import (
	"errors"
	"fmt"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Frame types. Each frame's payload is one message below, in the
// fixed-width binary encoding of wire.go; ftEnd's is empty. A
// connection carries one exchange at a time and is kept for the next:
// the client writes a request frame and reads response frames until
// the terminal one (ftError, or the request's *Res type), then writes
// ftEnd. Verify and rank requests are the streaming exchanges: the
// node emits ftScores frames as exact values land and accepts ftTau
// frames inbound at any time, then terminates with ftVerifyRes or
// ftRankRes. A top-k takes one rank exchange per shard; an aggregation
// takes a bounds exchange, then a verify exchange, per shard. A node
// reads up to ftEnd before it reads the next request, so a late push
// is consumed, never read as a request, and a client that stops
// pushing before ftEnd leaves nothing in flight on a kept connection.
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
	ftEnd
	ftRank
	ftRankRes
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
	Name  string
	Spec  core.RegionSpec
	Range core.ValueRange
}

// wireCmp is one CP comparison of a conjunctive predicate.
type wireCmp struct {
	T  core.Term
	Op core.Op
	C  int64
}

// toWireTerm serializes a facade-built term, rejecting one without a
// region spec.
func toWireTerm(t core.CPTerm) (wireTerm, error) {
	if t.Spec.Kind == core.RegionNone {
		return wireTerm{}, fmt.Errorf("dist: term %q has no region spec: %w", t.String(), errNotDistributable)
	}
	return wireTerm{Name: t.Name, Spec: t.Spec, Range: t.Range}, nil
}

// toWireTerms serializes a filter's terms.
func toWireTerms(terms []core.CPTerm) ([]wireTerm, error) {
	out := make([]wireTerm, len(terms))
	for i, t := range terms {
		var err error
		if out[i], err = toWireTerm(t); err != nil {
			return nil, err
		}
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
// renders it as per-node health; the coordinator compares the wire
// version and the dataset fields against its own before the node
// serves its first request.
type HelloRes struct {
	// Wire is the node's WireVersion.
	Wire int
	Node string
	// BootID changes on every node process start. The coordinator sends
	// the one it validated with every work request, and a node refuses
	// work validated against another boot; it also resets the
	// coordinator's cumulative read-stats baseline for the node.
	BootID     string
	NumMasks   int
	MaskW      int
	MaskH      int
	Shards     int
	Codec      string
	GenVersion int
}

// nodeInfo trails every work response: the responding node's identity
// plus its cumulative per-shard read counters, from which the
// coordinator folds deltas into the facade's remote-read stats.
type nodeInfo struct {
	Node   string
	BootID string
	Reads  []store.ReadStats
}

// Every work request carries BootID, the node boot its coordinator
// validated. DeadlineMS, when positive, bounds the node-side work
// relative to request receipt (the coordinator derives it from its ctx
// deadline).

// filterReq asks a node to run the filter stage over ids it owns.
type filterReq struct {
	BootID     string
	IDs        []int64
	Terms      []wireTerm
	Pred       []wireCmp
	DeadlineMS int64
}

type filterRes struct {
	Keep  []bool
	Stats core.Stats
	Node  nodeInfo
}

// boundsReq asks for the candidate bounds of the score term over ids
// the node owns.
type boundsReq struct {
	BootID     string
	IDs        []int64
	Term       wireTerm
	DeadlineMS int64
}

// boundsRes answers a boundsReq with one candidate per requested id, in
// request order.
type boundsRes struct {
	Cands []core.CandBound
	Stats core.Stats
	Node  nodeInfo
}

// verifyReq asks a node to exactly verify items it owns on the score
// term, streaming scores back as they land. Gate ships the driver's
// aggregation gate over these items: the node rebuilds it, advances it
// by its own landings and tightens it by inbound ftTau frames.
type verifyReq struct {
	BootID     string
	Items      []core.VerifyItem
	Term       wireTerm
	Gate       core.GateSpec
	DeadlineMS int64
}

// rankReq asks a node to rank ids it owns for a top-k of K in direction
// Ord (core.RankShard), streaming back every exact score that may
// place. Inbound ftTau frames tighten its τ.
type rankReq struct {
	BootID     string
	IDs        []int64
	Term       wireTerm
	K          int
	Ord        core.Order
	DeadlineMS int64
}

// scoreChunk is one batch of exact results.
type scoreChunk []idxScore

// idxScore is one item's exact score; Idx is its index in
// verifyReq.Items, or rankReq.IDs.
type idxScore struct {
	Idx   int
	Score int64
}

// tauPush pushes the driver's tightened τ, with its holder, to an
// in-flight verify or rank.
type tauPush core.Scored

// verifyRes terminates a verify stream (ftVerifyRes) or a rank stream
// (ftRankRes).
type verifyRes struct {
	Stats core.Stats
	Node  nodeInfo
}

// wireError is the payload of an ftError frame. BootID names the node
// boot that failed the request.
type wireError struct {
	Msg    string
	BootID string
}

// errRemote wraps a node-reported failure on the coordinator side.
type errRemote struct {
	msg    string
	bootID string
}

func (e *errRemote) Error() string { return "dist: remote error: " + e.msg }
