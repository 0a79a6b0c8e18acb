// Tables 3, 4 and 5: bug discovery (MLPCT vs PCT), Razzer race
// reproduction, and Snowboard cluster sampling.
package snowcat_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/razzer"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// ---------------------------------------------------------------------
// Table 3 — new concurrency bugs: which planted bugs does each explorer
// trigger on v6.1 within the same CTI stream?
// ---------------------------------------------------------------------

type table3Run struct {
	seed uint64
	pct  *campaign.History
	s1   *campaign.History
	s3   *campaign.History
}

var (
	table3Once  sync.Once
	table3Mu    sync.Mutex
	table3Cache []table3Run
)

func table3Histories() []table3Run {
	table3Mu.Lock()
	defer table3Mu.Unlock()
	if table3Cache == nil {
		// The paper's bug-discovery campaign ran for a week; the planted
		// bugs here need the right syscall pair in a random CTI, a
		// triggering argument, and a window-hitting schedule, so discovery
		// is rare and noisy — the benchmark therefore repeats the
		// comparison over several independent CTI streams.
		f := getFixture()
		const n = 400
		for _, seed := range []uint64{604, 614, 624} {
			table3Cache = append(table3Cache, table3Run{
				seed: seed,
				pct:  runCampaign(f.k61, "PCT", seed, n, nil, nil),
				s1:   runCampaign(f.k61, "MLPCT-S1", seed, n, f.pic6ftMed, strategy.NewS1()),
				s3:   runCampaign(f.k61, "MLPCT-S3", seed, n, f.pic6ftMed, strategy.NewS3(25)),
			})
		}
	}
	return table3Cache
}

func bugList(h *campaign.History) []int32 {
	var out []int32
	for id := range h.BugsFound {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func BenchmarkTable3BugDiscovery(b *testing.B) {
	runs := table3Histories()
	f := getFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runCampaign(f.k61, "probe", uint64(1000+i), 2, nil, nil)
	}
	pctTotal, mlTotal := 0, 0
	for _, r := range runs {
		pctTotal += len(r.pct.BugsFound)
		union := map[int32]bool{}
		for id := range r.s1.BugsFound {
			union[id] = true
		}
		for id := range r.s3.BugsFound {
			union[id] = true
		}
		mlTotal += len(union)
	}
	b.ReportMetric(float64(mlTotal)/float64(len(runs)), "MLPCT-bugs")
	b.ReportMetric(float64(pctTotal)/float64(len(runs)), "PCT-bugs")

	printOnce(&table3Once, func() {
		fmt.Println("\n=== Table 3: planted-bug discovery on v6.1 (paper: all 9 confirmed new bugs found only by MLPCT) ===")
		fmt.Printf("planted bugs: %d; per-stream discovery (same CTI stream, same per-CTI budget):\n", len(f.k61.Bugs))
		for _, r := range runs {
			fmt.Printf("  stream %d: PCT %v | MLPCT-S1 %v | MLPCT-S3 %v | execs %d/%d/%d\n",
				r.seed, bugList(r.pct), bugList(r.s1), bugList(r.s3),
				r.pct.TotalExecs, r.s1.TotalExecs, r.s3.TotalExecs)
		}
		fmt.Println("(discovery is rare at this kernel scale: a bug needs its syscall pair in a")
		fmt.Println(" random CTI, the writer's trigger argument, and a window-hitting schedule)")
	})
}

// ---------------------------------------------------------------------
// Table 4 — Razzer / Razzer-Relax / Razzer-PIC reproducing the planted
// races.
// ---------------------------------------------------------------------

type table4Row struct {
	raceID  rune
	results [3]razzer.ReproResult
}

var (
	table4Once  sync.Once
	table4Mu    sync.Mutex
	table4Cache []table4Row
)

func table4Rows() []table4Row {
	table4Mu.Lock()
	defer table4Mu.Unlock()
	if table4Cache != nil {
		return table4Cache
	}
	f := getFixture()
	k := f.k512
	var syscalls []int32
	var targets []razzer.TargetRace
	for _, bug := range k.Bugs {
		tr, err := razzer.RaceFromBug(k, bug)
		if err != nil {
			panic(err)
		}
		targets = append(targets, tr)
		syscalls = append(syscalls, bug.ReaderSyscall, bug.WriterSyscall)
	}
	pool := razzer.BuildPool(k, syscalls, 60, 20, 605)
	finder, err := razzer.NewFinder(k, pool)
	if err != nil {
		panic(err)
	}
	const maxCTIs = 24 // cap per mode to bound bench time
	cfg := razzer.ReproConfig{SchedulesPerCTI: 250, Seed: 606, ExecSeconds: 2.8, Shuffles: 1000}
	for ti, tr := range targets {
		row := table4Row{raceID: rune('A' + ti)}
		for mi, mode := range []razzer.Mode{razzer.Conservative, razzer.Relax, razzer.PICFiltered} {
			ctis := razzer.SpreadCap(finder.FindCTIs(tr, mode, f.pic5.Predictor(), uint64(607+ti)), maxCTIs, uint64(613+ti))
			res, err := finder.Reproduce(tr, ctis, cfg)
			if err != nil {
				panic(err)
			}
			res.Mode = mode
			row.results[mi] = res
		}
		table4Cache = append(table4Cache, row)
	}
	return table4Cache
}

func BenchmarkTable4RazzerReproduction(b *testing.B) {
	rows := table4Rows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table4Rows() // cached after the first call; measures lookup+format path
	}

	var relaxAvg, picAvg float64
	var nBoth int
	for _, r := range rows {
		if r.results[1].Reproduced && r.results[2].Reproduced {
			relaxAvg += r.results[1].AvgHours
			picAvg += r.results[2].AvgHours
			nBoth++
		}
	}
	if nBoth > 0 && picAvg > 0 {
		b.ReportMetric(relaxAvg/picAvg, "relax/pic-time")
	}

	printOnce(&table4Once, func() {
		fmt.Println("\n=== Table 4: race reproduction (paper: Razzer misses 5/6; Razzer-PIC ≈ Razzer-Relax coverage at ~15x lower cost) ===")
		fmt.Printf("%-5s | %-32s | %-32s | %-32s\n", "race", "Razzer", "Razzer-Relax", "Razzer-PIC")
		for _, r := range rows {
			cell := func(res razzer.ReproResult) string {
				if !res.Reproduced {
					return fmt.Sprintf("%3d CTIs %3d TP    Na /    Na", res.CTIs, res.TPCTIs)
				}
				return fmt.Sprintf("%3d CTIs %3d TP %5.1fh / %5.1fh", res.CTIs, res.TPCTIs, res.AvgHours, res.WorstHours)
			}
			fmt.Printf("%-5c | %-32s | %-32s | %-32s\n",
				r.raceID, cell(r.results[0]), cell(r.results[1]), cell(r.results[2]))
		}
	})
}

// ---------------------------------------------------------------------
// Table 5 — Snowboard cluster sampling: SB-RND(25/50/75) vs SB-PIC(S1/S2)
// over buggy INS-PAIR clusters.
// ---------------------------------------------------------------------

type table5Agg struct {
	name     string
	prob     float64
	sampling float64
	executed float64
	clusters int
}

var (
	table5Once  sync.Once
	table5Mu    sync.Mutex
	table5Cache []table5Agg
)

func table5Rows() []table5Agg {
	table5Mu.Lock()
	defer table5Mu.Unlock()
	if table5Cache != nil {
		return table5Cache
	}
	f := getFixture()
	k := f.k61
	gen := syz.NewGenerator(k, 610)

	// Build the buggy clusters: CTI candidates around each planted bug's
	// reader/writer syscalls, clustered by INS-PAIR; keep the cluster on
	// the bug's guard variable when some member triggers the bug.
	type buggy struct {
		cluster    *snowboard.Cluster
		triggering []bool
		bugID      int32
	}
	var buggies []buggy
	for _, bug := range k.Bugs {
		var ms []snowboard.Member
		for i := 0; i < 24; i++ {
			a := gen.GenerateFor(bug.WriterSyscall)
			bSTI := gen.GenerateFor(bug.ReaderSyscall)
			pa, err := syz.Run(k, a)
			if err != nil {
				panic(err)
			}
			pb, err := syz.Run(k, bSTI)
			if err != nil {
				panic(err)
			}
			ms = append(ms, snowboard.Member{
				CTI: ski.CTI{ID: int64(i), A: a, B: bSTI}, ProfA: pa, ProfB: pb,
			})
		}
		for _, c := range snowboard.ClusterCTIs(ms) {
			if c.Key.Addr != bug.GuardVars[2] || len(c.Members) < 6 {
				continue
			}
			trig := make([]bool, len(c.Members))
			any, all := false, true
			for i, m := range c.Members {
				hit, _, err := snowboard.Explore(explore.DefaultExecutor(k), m, c, bug.ID, 20, uint64(611+i), nil, nil, nil)
				if err != nil {
					panic(err)
				}
				trig[i] = hit
				any = any || hit
				all = all && hit
			}
			// A useful buggy cluster has both triggering and
			// non-triggering members; otherwise sampling cannot matter.
			if any && !all {
				buggies = append(buggies, buggy{cluster: c, triggering: trig, bugID: bug.ID})
				break
			}
		}
	}
	if len(buggies) == 0 {
		panic("table5: no buggy clusters found")
	}

	builder := campaign.NewRunner(k).Builder
	samplers := []snowboard.Sampler{
		snowboard.NewRND(0.25, 612),
		snowboard.NewRND(0.50, 613),
		snowboard.NewRND(0.75, 614),
		snowboard.NewPIC(builder, f.pic6ftMed.Predictor(), strategy.NewS1()),
		snowboard.NewPIC(builder, f.pic6ftMed.Predictor(), strategy.NewS2()),
	}
	const trials = 1000
	for _, s := range samplers {
		agg := table5Agg{name: s.Name()}
		for _, bc := range buggies {
			res := snowboard.RunTrials(bc.cluster, s, bc.triggering, trials)
			agg.prob += res.BugFindProb
			agg.sampling += res.SamplingRate
			agg.executed += res.MeanExecuted
			agg.clusters++
		}
		agg.prob /= float64(agg.clusters)
		agg.sampling /= float64(agg.clusters)
		agg.executed /= float64(agg.clusters)
		table5Cache = append(table5Cache, agg)
	}
	return table5Cache
}

func BenchmarkTable5SnowboardSampling(b *testing.B) {
	rows := table5Rows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table5Rows()
	}
	// The headline comparisons: SB-PIC(S2) vs SB-RND(25) and SB-RND(50).
	var s2, rnd25, rnd50 table5Agg
	for _, r := range rows {
		switch r.name {
		case "SB-PIC(S2)":
			s2 = r
		case "SB-RND(25%)":
			rnd25 = r
		case "SB-RND(50%)":
			rnd50 = r
		}
	}
	if rnd25.prob > 0 {
		b.ReportMetric(s2.prob/rnd25.prob, "S2-vs-RND25")
	}
	if rnd50.prob > 0 {
		b.ReportMetric(s2.prob/rnd50.prob, "S2-vs-RND50")
	}

	printOnce(&table5Once, func() {
		fmt.Println("\n=== Table 5: Snowboard exemplar sampling over buggy clusters ===")
		fmt.Println("(paper: SB-PIC(S2) 77.6% prob @ 44.8% sampling; SB-RND 29.5/54.6/78.5% @ 25/50/75%;")
		fmt.Println(" SB-PIC(S1) perfect probability but near-full sampling)")
		fmt.Printf("%-14s %14s %14s %12s\n", "Sampler", "bug-find-prob", "sampling-rate", "CTIs/cluster")
		for _, r := range rows {
			fmt.Printf("%-14s %13.1f%% %13.1f%% %12.1f\n",
				r.name, r.prob*100, r.sampling*100, r.executed)
		}
	})
}

var _ = kernel.Kernel{}
