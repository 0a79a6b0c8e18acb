package serve

import (
	"context"
	"fmt"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// ErrNoStation reports a CTI-level request against a server configured
// without a kernel (Config.Kernel nil): such a server can only score wire
// graphs, not raw (CTI, schedule) work.
var ErrNoStation = fmt.Errorf("%w: server has no CTI station (Config.Kernel unset)", ErrBadRequest)

// stationEntry is the shard-local state of one CTI: the
// schedule-independent base graph built from its STI profiles.
// Reconstructing it is the expensive
// part of scoring a CTI the shard has never seen — two sequential profile
// runs plus the base-graph build cost several predictions' worth of time —
// which is exactly why the fleet routes CTIs consistently: a shard that
// keeps seeing the same partition pays this once per CTI, not once per
// request.
type stationEntry struct {
	a, b int64 // STI IDs, to catch CTI-ID reuse with different programs
	base *ctgraph.Base
}

// CTIStation is a bounded LRU of per-CTI shard state, keyed by CTI ID.
// It is the fleet-facing entry point of a shard: clients send raw
// (CTI, schedules) requests and the station profiles the STIs and builds
// the base graph on a miss, so consistent-hash routing converts into
// cache affinity. The derived pic.BaseContexts live in the server's
// BaseCache, keyed by the base pointer the station keeps stable.
//
// Like BaseCache, misses build under the lock: concurrent misses for one
// CTI deduplicate, and the second caller hits.
type CTIStation struct {
	k       *kernel.Kernel
	builder *ctgraph.Builder
	lru[int64, *stationEntry]
}

// NewCTIStation returns an empty station over kernel k holding at most
// capacity CTIs (capacity <= 0 selects 64).
func NewCTIStation(k *kernel.Kernel, capacity int) *CTIStation {
	st := &CTIStation{k: k, builder: ctgraph.NewBuilder(k, cfg.Build(k))}
	st.init(capacity)
	return st
}

// Entry returns the shard state of cti, profiling its STIs and building
// the base graph on a miss. An entry whose cached STI IDs do not match
// the request is rebuilt (CTI-ID reuse across kernel eras).
func (st *CTIStation) Entry(cti ski.CTI) (*stationEntry, error) {
	if cti.A == nil || cti.B == nil {
		return nil, fmt.Errorf("%w: CTI %d has nil STIs", ErrBadRequest, cti.ID)
	}
	fresh := func(e *stationEntry) bool { return e.a == cti.A.ID && e.b == cti.B.ID }
	return st.get(cti.ID, fresh, func() (*stationEntry, error) {
		pa, err := syz.Run(st.k, cti.A)
		if err != nil {
			return nil, fmt.Errorf("serve: station profile of sti%d: %w", cti.A.ID, err)
		}
		pb, err := syz.Run(st.k, cti.B)
		if err != nil {
			return nil, fmt.Errorf("serve: station profile of sti%d: %w", cti.B.ID, err)
		}
		return &stationEntry{a: cti.A.ID, b: cti.B.ID, base: st.builder.BuildBase(cti, pa, pb)}, nil
	})
}

// Station returns the server's CTI station, or nil when the server was
// configured without a kernel.
func (s *Server) Station() *CTIStation { return s.station }

// PredictCTI scores the given schedules of one CTI: the fleet-facing
// request shape, where the shard owns all per-CTI state. On a station
// miss the shard profiles the STIs and builds the base graph itself; the
// derived graphs then ride the normal admission/coalescing path (and the
// BaseContext LRU) exactly like in-process graph requests. wait selects
// admission Wait mode (see Request.Wait).
func (s *Server) PredictCTI(ctx context.Context, cti ski.CTI, scheds []ski.Schedule, wait bool) (*Response, error) {
	if s.station == nil {
		return nil, ErrNoStation
	}
	if len(scheds) == 0 {
		return nil, fmt.Errorf("%w: no schedules", ErrBadRequest)
	}
	req, err := s.ctiRequest(cti, scheds)
	if err != nil {
		return nil, err
	}
	req.Wait = wait
	return s.Predict(ctx, req)
}

// ctiRequest builds the graph request scoring scheds of cti from the
// station entry (profiling and building the base on a miss).
func (s *Server) ctiRequest(cti ski.CTI, scheds []ski.Schedule) (*Request, error) {
	e, err := s.station.Entry(cti)
	if err != nil {
		s.stats.errors.Add(1)
		return nil, err
	}
	gs := make([]*ctgraph.Graph, len(scheds))
	for i, sched := range scheds {
		gs[i] = e.base.WithSchedule(sched)
	}
	return &Request{Graphs: gs}, nil
}
