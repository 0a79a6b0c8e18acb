package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/ski"
)

// FuzzServeRequest throws arbitrary bytes at the /v1/predict decode path
// and pins three properties: malformed input is rejected with ErrBadRequest
// and never panics; every accepted request survives an encode → decode
// round trip unchanged; and every accepted graph scores without panicking —
// Validate really does screen everything the inference path indexes with.
func FuzzServeRequest(f *testing.F) {
	k := kernel.Generate(kernel.SmallConfig(3))
	m := pic.New(pic.Config{Dim: 8, Layers: 1, Seed: 4})
	tc := pic.NewTokenCache(k, m.Vocab)
	numBlocks := k.NumBlocks()

	f.Add([]byte(`{"graphs":[{"vertices":[{"block":0,"type":0}]}]}`))
	f.Add([]byte(`{"model":"v1","deadline_ms":5,"graphs":[{` +
		`"vertices":[{"block":0,"type":0},{"block":1,"type":1}],` +
		`"edges":[{"from":0,"to":1,"type":0}],` +
		`"hints":[{"thread":1,"block":0,"idx":2}],"hint_frac":[0.5]}]}`))
	f.Add([]byte(`{"graphs":[]}`))
	f.Add([]byte(`{"graphs":[{"vertices":[{"block":-1,"type":0}]}]}`))
	f.Add([]byte(`{"graphs":[{"vertices":[{"block":0,"type":99}]}]}`))
	f.Add([]byte(`{"graphs":[{"vertices":[{"block":0,"type":0}],"edges":[{"from":0,"to":7,"type":0}]}]}`))
	f.Add([]byte(`{"graphs":[{"vertices":[{"block":0,"type":0}],"hint_frac":[1e999]}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, numBlocks)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection not tagged ErrBadRequest: %v", err)
			}
			return
		}

		// Round trip: the canonical encoding is a fixed point — re-marshal,
		// re-decode, re-marshal must reproduce the bytes. (DeepEqual on the
		// structs would be too strict: JSON cannot distinguish nil from
		// empty slices, and field-name case folds on decode.)
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal of accepted request: %v", err)
		}
		again, err := DecodeRequest(out, numBlocks)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal after round trip: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding not a fixed point:\n was %s\n now %s", out, out2)
		}

		// Every accepted graph must score cleanly: finite probabilities in
		// [0,1], one per vertex.
		for i, wg := range req.Graphs {
			g := wg.Graph()
			scores := m.Predict(g, tc)
			if len(scores) != len(wg.Vertices) {
				t.Fatalf("graph %d: %d scores for %d vertices", i, len(scores), len(wg.Vertices))
			}
			for j, p := range scores {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("graph %d vertex %d: probability %v", i, j, p)
				}
			}
		}
	})
}

// FuzzExecRequest throws arbitrary bytes at the /v1/execute_cti decode
// path and pins the same three properties for execution: malformed input
// is rejected with ErrBadRequest and never panics; every accepted request
// survives the canonical encode → decode round trip; and every accepted
// CTI runs each of its schedules through ski.ExecuteSteps — exactly what
// the handler does — to a result or an error, never a panic.
func FuzzExecRequest(f *testing.F) {
	kcfg := kernel.SmallConfig(3)
	kcfg.NumIRQs = 2
	k := kernel.Generate(kcfg)
	numSyscalls := len(k.Syscalls)

	f.Add([]byte(`{"cti":{"id":1,"a":{"id":1,"calls":[{"syscall":0,"args":[3]}]},` +
		`"b":{"id":2,"calls":[{"syscall":1}]}},"schedules":[{}]}`))
	f.Add([]byte(`{"cti":{"id":2,"a":{"calls":[{"syscall":0},{"syscall":2,"args":[-1,7]}]},` +
		`"b":{"calls":[{"syscall":1}]}},"step_limit":40,"schedules":[` +
		`{"hints":[{"thread":0,"block":3,"idx":0},{"thread":1,"block":-9,"idx":2}]},` +
		`{"irqs":[{"thread":1,"block":0,"idx":0,"irq":99}]}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},` +
		`"schedules":[{"hints":[{"thread":7,"block":0,"idx":0}]}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},"schedules":[]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},"step_limit":-1,"schedules":[{}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":99999}]},"b":{"calls":[{"syscall":0}]}},"schedules":[{}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[]},"b":{"calls":[{"syscall":0}]}},"schedules":[{}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeExecRequest(data, numSyscalls)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection not tagged ErrBadRequest: %v", err)
			}
			return
		}

		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal of accepted request: %v", err)
		}
		again, err := DecodeExecRequest(out, numSyscalls)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal after round trip: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding not a fixed point:\n was %s\n now %s", out, out2)
		}

		cti := req.CTI.CTI()
		for i, ws := range req.Schedules {
			res, err := ski.ExecuteSteps(k, cti, ws.Schedule(), req.StepLimit)
			if (res == nil) == (err == nil) {
				t.Fatalf("schedule %d: result %v with error %v, want exactly one", i, res, err)
			}
			if res != nil && len(res.Covered) != k.NumBlocks() {
				t.Fatalf("schedule %d: coverage of %d blocks, kernel has %d", i, len(res.Covered), k.NumBlocks())
			}
		}
	})
}

// FuzzPredictCTIRequest throws arbitrary bytes at the /v1/predict_cti
// decode path and pins the same three properties for shard-side scoring:
// malformed input is rejected with ErrBadRequest and never panics; every
// accepted request survives the canonical encode → decode round trip; and
// every accepted CTI scores its schedules through Server.PredictCTI —
// station profiling, base-graph build and inference — to a response or an
// error, never a panic.
func FuzzPredictCTIRequest(f *testing.F) {
	kcfg := kernel.SmallConfig(3)
	kcfg.NumIRQs = 2
	k := kernel.Generate(kcfg)
	numSyscalls := len(k.Syscalls)
	m := pic.New(pic.Config{Dim: 8, Layers: 1, Seed: 4})
	reg := NewRegistry()
	if err := reg.Load("v1", m, pic.NewTokenCache(k, m.Vocab)); err != nil {
		f.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		f.Fatal(err)
	}
	srv := New(reg, Config{Sync: true, Workers: 1, Kernel: k, StationSize: 4})
	f.Cleanup(func() { srv.Close() })

	f.Add([]byte(`{"cti":{"id":1,"a":{"id":1,"calls":[{"syscall":0,"args":[3]}]},` +
		`"b":{"id":2,"calls":[{"syscall":1}]}},"schedules":[{}]}`))
	f.Add([]byte(`{"model":"v1","deadline_ms":50,"cti":{"id":2,"a":{"id":3,"calls":[{"syscall":0},{"syscall":2,"args":[-1,7]}]},` +
		`"b":{"id":4,"calls":[{"syscall":1}]}},"schedules":[` +
		`{"hints":[{"thread":0,"block":3,"idx":0},{"thread":1,"block":-9,"idx":2}]},` +
		`{"irqs":[{"thread":1,"block":0,"idx":0,"irq":99}]}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},` +
		`"schedules":[{"hints":[{"thread":7,"block":0,"idx":0}]}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},"schedules":[]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":0}]},"b":{"calls":[{"syscall":0}]}},"deadline_ms":-1,"schedules":[{}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":99999}]},"b":{"calls":[{"syscall":0}]}},"schedules":[{}]}`))
	f.Add([]byte(`{"cti":{"a":{"calls":[]},"b":{"calls":[{"syscall":0}]}},"schedules":[{}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeCTIRequest(data, numSyscalls)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection not tagged ErrBadRequest: %v", err)
			}
			return
		}

		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal of accepted request: %v", err)
		}
		again, err := DecodeCTIRequest(out, numSyscalls)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal after round trip: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding not a fixed point:\n was %s\n now %s", out, out2)
		}

		scheds := make([]ski.Schedule, len(req.Schedules))
		for i, ws := range req.Schedules {
			scheds[i] = ws.Schedule()
		}
		resp, err := srv.PredictCTI(context.Background(), req.CTI.CTI(), scheds, true)
		if (resp == nil) == (err == nil) {
			t.Fatalf("response %v with error %v, want exactly one", resp, err)
		}
		if err != nil {
			return
		}
		if len(resp.Scores) != len(scheds) {
			t.Fatalf("%d score vectors for %d schedules", len(resp.Scores), len(scheds))
		}
		for i, scores := range resp.Scores {
			for j, p := range scores {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("schedule %d vertex %d: probability %v", i, j, p)
				}
			}
		}
	})
}
