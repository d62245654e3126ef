package cuttlesys_test

import (
	"fmt"
	"strings"

	"cuttlesys"
)

// mustCompile parses an inline scenario spec and resolves it against its
// run options, the first two steps of every spec-driven run.
func mustCompile(src string, opt cuttlesys.ScenarioOptions) *cuttlesys.CompiledScenario {
	spec, err := cuttlesys.ParseScenario([]byte(src))
	if err != nil {
		panic(err)
	}
	comp, err := cuttlesys.CompileScenario(spec, opt)
	if err != nil {
		panic(err)
	}
	return comp
}

// ExampleCompiledScenario_RunMachine is the quickstart: colocate the
// Xapian websearch service with a 16-job SPEC mix on a 32-core
// reconfigurable machine, let CuttleSys manage it for two seconds under
// a 70 % power cap, and print what happened. One policy on one machine
// is a one-machine scenario spec.
func ExampleCompiledScenario_RunMachine() {
	// A 32-core machine with reconfigurable cores: 16 cores serve
	// Xapian, 16 run a batch mix drawn with seed 42 from the
	// applications the runtime has NOT seen during offline training,
	// all sharing a 32-way LLC, DRAM bandwidth and the power budget.
	// CuttleSys, the default policy, manages it with the paper's
	// parameters for two seconds at 80 % load under a 70 % power cap.
	comp := mustCompile(`scenario quickstart
service xapian
machines 1
slices 20
load 0.8
cap 0.7
mix seed=42
`, cuttlesys.ScenarioOptions{Seed: 42})
	res, _, err := comp.RunMachine(nil)
	if err != nil {
		panic(err)
	}

	fmt.Println("slice  p99(ms)  QoS(ms)  gmean-BIPS  power(W)  budget(W)  LC-config")
	for _, s := range res.Slices {
		fmt.Printf("%5.1f  %7.2f  %7.0f  %10.2f  %8.1f  %9.1f  %s\n",
			s.T, s.P99Ms, s.QoSMs, s.GmeanBIPS, s.AvgPowerW, s.BudgetW, s.LCCoreCfg)
	}
	fmt.Printf("\ntotal batch work: %.1f billion instructions, QoS violations: %d\n",
		res.TotalInstrB(), res.QoSViolations())

	// Output:
	// slice  p99(ms)  QoS(ms)  gmean-BIPS  power(W)  budget(W)  LC-config
	//   0.0     1.67        8        1.20      87.5       88.8  {6,6,6}
	//   0.1     1.75        8        2.09      88.8       88.8  {4,2,6}
	//   0.2     1.96        8        2.20      90.4       88.8  {4,2,6}
	//   0.3     1.98        8        2.15      89.9       88.8  {4,2,6}
	//   0.4     1.93        8        2.06      88.4       88.8  {4,2,6}
	//   0.5     1.82        8        2.14      88.8       88.8  {4,2,6}
	//   0.6     1.75        8        2.17      89.0       88.8  {4,2,6}
	//   0.7     1.80        8        2.19      89.2       88.8  {4,2,6}
	//   0.8     1.98        8        2.18      88.8       88.8  {4,2,6}
	//   0.9     1.76        8        2.24      89.0       88.8  {4,2,6}
	//   1.0     1.96        8        2.13      88.7       88.8  {4,2,6}
	//   1.1     1.73        8        2.22      88.8       88.8  {4,2,6}
	//   1.2     1.85        8        2.26      89.7       88.8  {4,2,6}
	//   1.3     1.93        8        2.16      89.6       88.8  {4,2,6}
	//   1.4     1.94        8        2.17      89.0       88.8  {4,2,6}
	//   1.5     1.83        8        2.16      89.2       88.8  {4,2,6}
	//   1.6     1.72        8        2.14      88.9       88.8  {4,2,6}
	//   1.7     1.97        8        2.18      89.3       88.8  {4,2,6}
	//   1.8     2.10        8        2.19      89.6       88.8  {4,2,6}
	//   1.9     1.84        8        2.17      89.6       88.8  {4,2,6}
	//
	// total batch work: 99.9 billion instructions, QoS violations: 0
}

// ExampleCompiledScenario_RunMachine_diurnal is the paper's Fig. 8a
// scenario: a websearch service under a diurnal load pattern colocated
// with batch analytics. Watch CuttleSys downsize the service's cores at
// night (low load), handing the freed power to the batch jobs, and
// restore the wide configuration as the morning load climbs, all
// without violating QoS.
func ExampleCompiledScenario_RunMachine_diurnal() {
	// One "day" compressed into the run's 3.2 simulated seconds: load
	// swings 20 % -> 100 % -> 20 % while the chip holds a 70 % power cap.
	comp := mustCompile(`scenario diurnal-day
service xapian
machines 1
slices 32
load 1
cap 0.7
mix seed=7

client primary {
  arrival diurnal lo=0.2 hi=1 period=1
}
`, cuttlesys.ScenarioOptions{Seed: 7})
	res, _, err := comp.RunMachine(nil)
	if err != nil {
		panic(err)
	}

	fmt.Println("time   load  service-p99     batch-throughput          LC config")
	for _, s := range res.Slices {
		bar := strings.Repeat("#", int(s.GmeanBIPS*8))
		status := "ok"
		if s.Violated {
			status = "QoS VIOLATION"
		}
		fmt.Printf("%4.1fs  %3.0f%%  %6.2f ms %-4s %-24s  %s\n",
			s.T, 100*s.LoadFrac, s.P99Ms, status, bar, s.LCCoreCfg)
	}
	fmt.Printf("\nQoS violations: %d of %d slices; batch work: %.1f Binstr\n",
		res.QoSViolations(), len(res.Slices), res.TotalInstrB())

	// Output:
	// time   load  service-p99     batch-throughput          LC config
	//  0.0s   20%    1.53 ms ok   #######                   {6,6,6}
	//  0.1s   21%    2.47 ms ok   ###########               {6,4,6}
	//  0.2s   23%    2.19 ms ok   ############              {6,4,6}
	//  0.3s   27%    2.36 ms ok   ###############           {4,2,6}
	//  0.4s   32%    2.56 ms ok   ###############           {4,2,6}
	//  0.5s   38%    2.36 ms ok   ###############           {4,2,6}
	//  0.6s   45%    2.36 ms ok   ###############           {4,2,6}
	//  0.7s   52%    2.43 ms ok   ##############            {4,2,6}
	//  0.8s   60%    2.72 ms ok   ##############            {4,2,6}
	//  0.9s   68%    3.18 ms ok   #############             {4,2,6}
	//  1.0s   75%    3.01 ms ok   ##########                {6,4,6}
	//  1.1s   82%    9.25 ms QoS VIOLATION ##########                {6,4,6}
	//  1.2s   88%   12.33 ms QoS VIOLATION ########                  {6,6,6}
	//  1.3s   93%    1.92 ms ok   #####                     {6,6,6}
	//  1.4s   97%    1.86 ms ok   ########                  {6,6,6}
	//  1.5s   99%    1.95 ms ok   #########                 {6,6,6}
	//  1.6s  100%    2.02 ms ok   #########                 {6,6,6}
	//  1.7s   99%    1.74 ms ok   ########                  {6,6,6}
	//  1.8s   97%    1.75 ms ok   #######                   {6,6,6}
	//  1.9s   93%    1.83 ms ok   #####                     {6,6,6}
	//  2.0s   88%    1.92 ms ok   #########                 {6,6,6}
	//  2.1s   82%    1.64 ms ok   #######                   {6,6,6}
	//  2.2s   75%    1.86 ms ok   #############             {6,2,6}
	//  2.3s   68%    2.67 ms ok   ##########                {6,4,6}
	//  2.4s   60%    2.63 ms ok   ##############            {4,2,6}
	//  2.5s   52%    2.63 ms ok   ##############            {4,2,6}
	//  2.6s   45%    2.48 ms ok   ###############           {4,2,6}
	//  2.7s   38%    2.56 ms ok   ###############           {4,2,6}
	//  2.8s   32%    2.59 ms ok   ###############           {4,2,6}
	//  2.9s   27%    2.15 ms ok   ###############           {4,2,6}
	//  3.0s   23%    2.44 ms ok   ###############           {4,2,6}
	//  3.1s   21%    2.23 ms ok   ###############           {4,2,6}
	//
	// QoS violations: 2 of 32 slices; batch work: 112.5 Binstr
}

// ExampleRun_customApp brings its own application model. The runtime
// never needs to have seen your service before — that is the point of
// the collaborative-filtering reconstruction. Here we define a fictional
// "vectordb" similarity-search service (memory-hungry, load/store
// bound, spiky queries) plus a custom batch kernel, and let CuttleSys
// figure them out online from two 1 ms profiles per quantum.
func ExampleRun_customApp() {
	// A latency-critical vector-similarity service: big working set,
	// pointer-chasing (LS-bound), moderate ILP, heavy-tailed queries.
	vectordb := &cuttlesys.Profile{
		Name:  "vectordb",
		Class: cuttlesys.LatencyCritical,
		ILP:   2.0, FESens: 0.15, BESens: 0.05, LSSens: 0.7,
		BrMPKI:  2.0,
		MemFrac: 0.46, L1MissRate: 0.14, MLP: 6.5,
		WSWays: 6, MissFloor: 0.2, MissCeil: 0.85, MissSteep: 1.3,
		Activity: 0.85,
		MaxQPS:   12000, QoSTargetMs: 6, QuerySigma: 0.6, SatUtil: 0.75,
	}
	if err := vectordb.Validate(); err != nil {
		panic(err)
	}

	// Batch side: a custom compression kernel plus catalog apps.
	zstdish := &cuttlesys.Profile{
		Name: "zstd-worker",
		ILP:  2.6, FESens: 0.5, BESens: 0.45, LSSens: 0.3,
		BrMPKI:  6,
		MemFrac: 0.32, L1MissRate: 0.07, MLP: 2.2,
		WSWays: 1.5, MissFloor: 0.05, MissCeil: 0.5, MissSteep: 1.5,
		Activity: 0.95,
	}
	if err := zstdish.Validate(); err != nil {
		panic(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	batch := cuttlesys.Mix(5, pool, 12)
	for i := 0; i < 4; i++ {
		w := *zstdish
		w.Name = fmt.Sprintf("zstd-worker#%d", i+1)
		batch = append(batch, &w)
	}

	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
		Seed: 5, LC: vectordb, Batch: batch, Reconfigurable: true,
	})
	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 5})
	res, err := cuttlesys.Run(m, rt, 20,
		[]cuttlesys.LoadPattern{cuttlesys.ConstantLoad(0.7)}, cuttlesys.ConstantBudget(0.75))
	if err != nil {
		panic(err)
	}

	fmt.Println("CuttleSys managing a never-before-seen service:")
	for _, s := range res.Slices {
		fmt.Printf("%4.1fs  p99 %6.2f/%0.0f ms   LC %s/%.0fw   gmean %.2f BIPS\n",
			s.T, s.P99Ms, s.QoSMs, s.LCCoreCfg, s.LCCacheWays, s.GmeanBIPS)
	}
	fmt.Printf("\nQoS violations: %d; worst p99/QoS: %.2f\n",
		res.QoSViolations(), res.WorstP99Ratio())

	// Output:
	// CuttleSys managing a never-before-seen service:
	//  0.0s  p99   3.58/6 ms   LC {6,6,6}/4w   gmean 1.07 BIPS
	//  0.1s  p99   3.95/6 ms   LC {6,6,6}/4w   gmean 1.16 BIPS
	//  0.2s  p99   3.24/6 ms   LC {6,6,6}/4w   gmean 1.08 BIPS
	//  0.3s  p99   3.60/6 ms   LC {4,2,6}/4w   gmean 1.40 BIPS
	//  0.4s  p99   4.58/6 ms   LC {4,4,6}/2w   gmean 1.32 BIPS
	//  0.5s  p99   3.96/6 ms   LC {4,4,6}/2w   gmean 1.33 BIPS
	//  0.6s  p99   4.73/6 ms   LC {4,4,6}/2w   gmean 1.27 BIPS
	//  0.7s  p99   4.92/6 ms   LC {4,4,6}/2w   gmean 1.26 BIPS
	//  0.8s  p99   4.86/6 ms   LC {4,4,6}/2w   gmean 1.30 BIPS
	//  0.9s  p99   4.77/6 ms   LC {4,4,6}/2w   gmean 1.30 BIPS
	//  1.0s  p99   4.57/6 ms   LC {6,4,6}/2w   gmean 1.17 BIPS
	//  1.1s  p99   4.38/6 ms   LC {6,4,6}/2w   gmean 1.17 BIPS
	//  1.2s  p99   4.99/6 ms   LC {6,4,6}/2w   gmean 1.17 BIPS
	//  1.3s  p99   4.70/6 ms   LC {6,4,6}/2w   gmean 1.20 BIPS
	//  1.4s  p99   4.47/6 ms   LC {6,4,6}/2w   gmean 1.23 BIPS
	//  1.5s  p99   4.19/6 ms   LC {6,4,6}/2w   gmean 1.18 BIPS
	//  1.6s  p99   4.13/6 ms   LC {6,4,6}/2w   gmean 1.24 BIPS
	//  1.7s  p99   4.82/6 ms   LC {6,4,6}/2w   gmean 1.25 BIPS
	//  1.8s  p99   4.22/6 ms   LC {6,4,6}/2w   gmean 1.21 BIPS
	//  1.9s  p99   4.65/6 ms   LC {6,4,6}/2w   gmean 1.21 BIPS
	//
	// QoS violations: 0; worst p99/QoS: 0.83
}

// ExampleCompiledScenario_RunMachine_powerCap is the paper's Fig. 8b
// scenario: a datacenter-level power manager drops this server's budget
// from 90 % to 60 % mid-run (e.g. to ride through a cooling event) and
// later restores it. CuttleSys must keep the Silo OLTP service inside
// its QoS while squeezing the batch jobs into the smaller budget, and
// give the throughput back when the budget returns.
func ExampleCompiledScenario_RunMachine_powerCap() {
	// The budget steps to 60 % of the machine's reference maximum for
	// [30 %, 70 %) of the run and sits at 90 % elsewhere.
	comp := mustCompile(`scenario power-cap
service silo
machines 1
slices 30
load 0.8
cap 1
mix seed=11
budget step lo=0.9 hi=0.6 from=0.3 to=0.7
`, cuttlesys.ScenarioOptions{Seed: 11})
	res, _, err := comp.RunMachine(nil)
	if err != nil {
		panic(err)
	}

	fmt.Println("time   budget(W)  power(W)  over?  p99(ms)  gmean-BIPS")
	for _, s := range res.Slices {
		over := ""
		if s.AvgPowerW > s.BudgetW*1.02 {
			over = "OVER"
		}
		fmt.Printf("%4.1fs  %9.1f  %8.1f  %5s  %7.2f  %10.2f\n",
			s.T, s.BudgetW, s.AvgPowerW, over, s.P99Ms, s.GmeanBIPS)
	}
	fmt.Printf("\nbudget violations (>5%%): %d; QoS violations: %d\n",
		res.BudgetViolations(0.05), res.QoSViolations())

	// Output:
	// time   budget(W)  power(W)  over?  p99(ms)  gmean-BIPS
	//  0.0s      113.0     113.9            1.27        1.93
	//  0.1s      113.0      99.1            1.33        2.04
	//  0.2s      113.0      99.3            1.30        2.05
	//  0.3s      113.0     100.0            1.37        2.06
	//  0.4s      113.0     100.7            1.31        2.06
	//  0.5s      113.0     100.3            1.27        2.06
	//  0.6s      113.0     100.5            1.34        2.06
	//  0.7s      113.0      99.9            1.29        2.05
	//  0.8s      113.0      99.8            1.34        2.05
	//  0.9s       75.3      78.5   OVER     1.35        1.55
	//  1.0s       75.3      75.6            1.34        1.43
	//  1.1s       75.3      75.5            1.27        1.45
	//  1.2s       75.3      76.0            1.35        1.49
	//  1.3s       75.3      74.7            1.48        0.23
	//  1.4s       75.3      76.5            1.38        0.14
	//  1.5s       75.3      77.7   OVER     1.39        0.18
	//  1.6s       75.3      77.8   OVER     1.34        0.19
	//  1.7s       75.3      77.7   OVER     1.33        0.22
	//  1.8s       75.3      79.8   OVER     1.35        0.28
	//  1.9s       75.3      76.9   OVER     1.40        0.17
	//  2.0s       75.3      77.8   OVER     1.38        0.19
	//  2.1s       75.3      77.8   OVER     1.25        0.20
	//  2.2s      113.0     112.2            1.53        1.77
	//  2.3s      113.0     114.2            1.49        1.89
	//  2.4s      113.0     112.3            1.48        1.80
	//  2.5s      113.0     115.1            1.48        1.88
	//  2.6s      113.0     113.3            1.56        1.82
	//  2.7s      113.0     111.8            1.48        1.82
	//  2.8s      113.0     113.1            1.56        1.85
	//  2.9s      113.0     111.0            1.52        1.81
	//
	// budget violations (>5%): 1; QoS violations: 0
}

// ExampleRun_multiService is the paper's §VII-A generalisation: "CuttleSys is
// generalizable to any number of LC and batch services, as long as the
// system is not oversubscribed." Here a websearch tier (Xapian) and an
// OLTP tier (Silo) share one 32-core machine with 16 batch jobs: each
// service gets its own row in the latency/service-time matrices, its
// own QoS scan, and its own core-relocation state, while a single DDS
// search places the batch jobs around both. A spec has one load
// pattern per machine, so a run with a load pattern per service is
// assembled by hand.
func ExampleRun_multiService() {
	xapian, err := cuttlesys.AppByName("xapian")
	if err != nil {
		panic(err)
	}
	silo, err := cuttlesys.AppByName("silo")
	if err != nil {
		panic(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)

	// Each service starts on 8 cores (half the machine split evenly);
	// the remaining 16 cores run the batch mix.
	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
		Seed:           17,
		LC:             xapian,
		ExtraLCs:       []*cuttlesys.Profile{silo},
		Batch:          cuttlesys.Mix(17, pool, 16),
		Reconfigurable: true,
	})
	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 17})

	// Offered load is defined against each service's 16-core knee, so
	// 0.45 on 8 cores is the same utilisation as 0.9 on 16. Silo's load
	// ramps mid-run while Xapian's stays flat.
	const slices = 24
	horizon := float64(slices) * cuttlesys.SliceDur
	loads := []cuttlesys.LoadPattern{
		cuttlesys.ConstantLoad(0.45),
		cuttlesys.StepLoad(0.2, 0.42, 0.4*horizon, 0.8*horizon),
	}
	res, err := cuttlesys.Run(m, rt, slices, loads, cuttlesys.ConstantBudget(0.8))
	if err != nil {
		panic(err)
	}

	fmt.Println("time   xapian p99 (QoS 8ms)      silo p99 (QoS 5ms)        batch")
	for _, s := range res.Slices {
		mark := func(v bool) string {
			if v {
				return "VIOL"
			}
			return "ok"
		}
		fmt.Printf("%4.1fs  %6.2f ms %-4s %s c%-2d   %6.2f ms %-4s %s c%-2d   gmean %.2f\n",
			s.T,
			s.P99Ms, mark(s.Violated), s.LCCoreCfg, s.LCCores,
			s.ExtraP99Ms[0], mark(s.ExtraViolated[0]), s.ExtraLCCfg[0], s.ExtraLCCores[0],
			s.GmeanBIPS)
	}
	fmt.Printf("\nslices with any QoS violation: %d of %d\n", res.QoSViolations(), len(res.Slices))

	// Output:
	// time   xapian p99 (QoS 8ms)      silo p99 (QoS 5ms)        batch
	//  0.0s    1.66 ms ok   {6,6,6} c8      1.17 ms ok   {6,6,6} c8    gmean 2.62
	//  0.1s    1.66 ms ok   {6,6,6} c8      1.13 ms ok   {6,6,6} c8    gmean 2.74
	//  0.2s    1.80 ms ok   {6,6,6} c8      1.15 ms ok   {6,6,6} c8    gmean 2.71
	//  0.3s    1.58 ms ok   {6,6,6} c8      1.11 ms ok   {6,6,6} c8    gmean 2.53
	//  0.4s    1.83 ms ok   {6,6,6} c8      1.31 ms ok   {6,6,6} c8    gmean 2.84
	//  0.5s    1.84 ms ok   {6,6,6} c8      1.08 ms ok   {6,6,6} c8    gmean 2.72
	//  0.6s    1.99 ms ok   {6,6,6} c8      1.33 ms ok   {6,6,6} c8    gmean 2.63
	//  0.7s    1.70 ms ok   {6,6,6} c8      1.10 ms ok   {6,6,6} c8    gmean 2.74
	//  0.8s    1.57 ms ok   {6,6,6} c8      1.10 ms ok   {6,6,6} c8    gmean 2.50
	//  0.9s    2.06 ms ok   {6,6,6} c8      1.09 ms ok   {6,6,6} c8    gmean 2.55
	//  1.0s    1.85 ms ok   {6,6,6} c8      1.15 ms ok   {6,6,6} c8    gmean 2.62
	//  1.1s    1.87 ms ok   {6,6,6} c8      1.18 ms ok   {6,6,6} c8    gmean 2.91
	//  1.2s    1.64 ms ok   {6,6,6} c8      1.25 ms ok   {6,6,6} c8    gmean 2.78
	//  1.3s    1.57 ms ok   {6,6,6} c8      1.30 ms ok   {6,6,6} c8    gmean 2.49
	//  1.4s    1.88 ms ok   {6,6,6} c8      1.30 ms ok   {6,6,6} c8    gmean 2.44
	//  1.5s    1.80 ms ok   {6,6,6} c8      1.22 ms ok   {6,6,6} c8    gmean 2.59
	//  1.6s    1.72 ms ok   {6,6,6} c8      1.22 ms ok   {6,6,6} c8    gmean 2.72
	//  1.7s    1.80 ms ok   {6,6,6} c8      1.31 ms ok   {6,6,6} c8    gmean 2.60
	//  1.8s    1.78 ms ok   {6,6,6} c8      1.20 ms ok   {6,6,6} c8    gmean 2.82
	//  1.9s    1.82 ms ok   {6,6,6} c8      1.25 ms ok   {6,6,6} c8    gmean 2.83
	//  2.0s    1.67 ms ok   {6,6,6} c8      1.20 ms ok   {6,6,6} c8    gmean 2.67
	//  2.1s    1.82 ms ok   {6,6,6} c8      1.22 ms ok   {6,6,6} c8    gmean 2.78
	//  2.2s    1.86 ms ok   {6,6,6} c8      1.07 ms ok   {6,6,6} c8    gmean 2.70
	//  2.3s    1.70 ms ok   {6,6,6} c8      1.14 ms ok   {6,6,6} c8    gmean 2.54
	//
	// slices with any QoS violation: 0 of 24
}

// ExampleCompiledScenario_RunMachine_faults layers two fault clauses
// on one machine: its standing chaos schedule — a window of garbage
// telemetry — and a drill's incident — four of the service's cores
// failing stop, drawn from a stream salted apart from the first.
// CuttleSys runs under both; the record shows which faults were active
// each slice, the cores the service lost, and the runtime granting it
// more cores while they are gone.
func ExampleCompiledScenario_RunMachine_faults() {
	comp := mustCompile(`scenario chaos-drill
service xapian
machines 1
slices 10
load 0.7
cap 0.8
mix seed=3

fault machine=0 {
  event telemetry-garbage start=0.2 end=0.5
}

fault machine=0 salt=0x7 {
  event core-failstop start=0.4 end=0.8 cores=4
}
`, cuttlesys.ScenarioOptions{Seed: 3})
	res, _, err := comp.RunMachine(nil)
	if err != nil {
		panic(err)
	}

	fmt.Println("time  faults                           failed  p99(ms)  LC cores")
	for _, s := range res.Slices {
		fmt.Printf("%3.1fs  %-31s  %6d  %7.2f  %8d\n",
			s.T, strings.Join(s.FaultKinds, "+"), s.FailedCores, s.P99Ms, s.LCCores)
	}
	fmt.Printf("\nQoS violations: %d of %d slices\n", res.QoSViolations(), len(res.Slices))

	// Output:
	// time  faults                           failed  p99(ms)  LC cores
	// 0.0s                                        0     1.72        16
	// 0.1s                                        0     2.18        16
	// 0.2s  telemetry-garbage                     0     2.42        16
	// 0.3s  telemetry-garbage                     0     2.26        16
	// 0.4s  telemetry-garbage+core-failstop       4     2.71        16
	// 0.5s  core-failstop                         4     2.33        20
	// 0.6s  core-failstop                         4     2.33        20
	// 0.7s  core-failstop                         4     2.45        20
	// 0.8s  core-failstop                         0     2.24        20
	// 0.9s                                        0     2.22        16
	//
	// QoS violations: 0 of 10 slices
}

// ExampleCompiledScenario_RunMachine_traced attaches a trace recorder
// to a run: every slice's profile, decide and hold phases land in it as
// spans, and SummarizeTrace condenses them into the simulated time each
// phase took and the scheduler compute the decisions were charged.
func ExampleCompiledScenario_RunMachine_traced() {
	rec := cuttlesys.NewTraceRecorder()
	comp := mustCompile(`scenario traced
service silo
machines 1
slices 6
load 0.8
cap 0.7
mix seed=5
`, cuttlesys.ScenarioOptions{Seed: 5, Collector: rec})
	if _, _, err := comp.RunMachine(nil); err != nil {
		panic(err)
	}

	sum := cuttlesys.SummarizeTrace(rec.Events(), 0)
	fmt.Printf("%d events (%d spans, %d instants) over %.1f simulated seconds\n",
		sum.Events, sum.Spans, sum.Instants, sum.SimSpanSec)
	for _, p := range sum.Phases {
		fmt.Printf("%-13s %2d spans  %6.4f s\n", p.Name, p.Count, p.SimSec)
	}
	fmt.Printf("modeled decision overhead: %.1f ms\n", 1e3*sum.ModeledOverheadSec)

	// Output:
	// 48 events (36 spans, 12 instants) over 0.6 simulated seconds
	// slice          6 spans  0.6000 s
	// slice.steady   6 spans  0.5514 s
	// slice.decide   6 spans  0.0366 s
	// slice.hold     6 spans  0.0366 s
	// slice.profile 12 spans  0.0120 s
	// modeled decision overhead: 36.6 ms
}

// ExampleCompiledScenario_Run puts a two-machine fleet under the
// control plane. Machine 1 loses most of its service cores for good;
// the health state machine walks it from healthy through suspect and
// quarantine to a drain, evicts it, and provisions a successor, which
// serves a reduced share on probation first. Meanwhile the autoscaler
// adds a machine, because the broken one's lost capacity runs the rest
// of the fleet hot.
func ExampleCompiledScenario_Run() {
	comp := mustCompile(`scenario replace-broken
service xapian
machines 2
slices 10
load 0.6
cap 0.8
mix jobs=8
policy router=qos-aware arbiter=proportional

fault machine=1 {
  event core-failstop start=0.1 end=10 cores=12
}

control {
  replace-evicted
  health suspectafter=1 quarantineafter=1 drainafter=2 drainslices=1
}
`, cuttlesys.ScenarioOptions{Seed: 21})
	run, err := comp.Run()
	if err != nil {
		panic(err)
	}
	res := run.Control

	for _, tr := range res.Transitions {
		fmt.Printf("slice %d: machine %d %s -> %s (%s)\n", tr.Slice, tr.Machine, tr.From, tr.To, tr.Reason)
	}
	for _, ev := range res.Membership {
		fmt.Printf("slice %d: machine %d %s (%s)\n", ev.Slice, ev.Machine, ev.Event, ev.Reason)
	}
	fmt.Println("final:", res.Final)

	// Output:
	// slice 2: machine 1 healthy -> suspect (bad-slices)
	// slice 3: machine 1 suspect -> quarantined (bad-slices)
	// slice 5: machine 1 quarantined -> draining (unrecovered)
	// slice 6: machine 1 draining -> evicted (unrecovered)
	// slice 9: machine 2 probation -> healthy (probation-passed)
	// slice 0: machine 0 join (bootstrap)
	// slice 0: machine 1 join (bootstrap)
	// slice 5: machine 2 join (scale-up)
	// slice 6: machine 1 evict (unrecovered)
	// slice 6: machine 3 join (replace:1)
	// final: [healthy evicted healthy probation]
}

// ExampleNewModelPlane shares trained models across a fleet. Both
// machines run the same service beside the same batch mix, so they
// publish their SGD factors under one key; every second slice the
// plane folds the publications into a new aggregate version, the
// state a replacement machine would warm-start from.
func ExampleNewModelPlane() {
	lc, err := cuttlesys.AppByName("masstree")
	if err != nil {
		panic(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	batch := cuttlesys.Mix(8, pool, 8)
	var nodes []cuttlesys.FleetNode
	for _, seed := range cuttlesys.FleetSeeds(8, 2) {
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: seed, LC: lc, Batch: batch, Reconfigurable: true,
		})
		rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: seed, ShareFactors: true})
		nodes = append(nodes, cuttlesys.FleetNode{Machine: m, Scheduler: rt})
	}
	plane := cuttlesys.NewModelPlane(cuttlesys.ModelPlaneParams{SyncPeriod: 2}, nil)
	f, err := cuttlesys.NewFleet(cuttlesys.FleetConfig{
		Router:  cuttlesys.UniformRouter{},
		Arbiter: cuttlesys.ProportionalArbiter{},
		Share:   plane,
	}, nodes...)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if _, err := f.Run(6, cuttlesys.ConstantLoad(0.7), cuttlesys.ConstantBudget(0.8)); err != nil {
		panic(err)
	}

	publishes, aggregates, _ := plane.Totals()
	fmt.Printf("publishes %d, aggregate versions %d\n", publishes, aggregates)
	for _, k := range plane.Stats() {
		fmt.Printf("key %s: version %d from %d publications, %d slices stale\n",
			k.Key, k.Version, k.Publishes, k.Staleness)
	}

	// Output:
	// publishes 6, aggregate versions 3
	// key 4ce86636a750c8b1: version 3 from 6 publications, 0 slices stale
}
