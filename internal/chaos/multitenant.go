package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"flexio/internal/analyze"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/tenant"
)

// Multi-tenant chaos: scripts that host several tenants on one shared file
// system through the tenant service and hurt one of them, asserting that
// the service's protections hold:
//
//   - Survivor integrity: tenants that were not targeted end the scenario
//     with files byte-identical to a fault-free solo run.
//   - Breaker discipline: injected damage trips the targeted OST breakers,
//     open breakers route onto the degraded paths, and the trip counts are
//     visible in the Prometheus exposition.
//   - Admission honesty: shed and rejected work carries typed
//     ErrAdmissionRejected errors, and the counts in TenantStats match the
//     exposition exactly.
//
// Scripts are deterministic: jobs run inline in submission order, service
// time is logical ticks, and fault rules are scoped by file name so each
// phase is a pure function of the submitted sequence. They drive
// tenant.Service rather than one world, so they stay scripts instead of
// planes of Scenario; TenantScenario is a Cell like any other.

// Tenant scenario kinds.
const (
	// TKindErrorStorm aborts the noisy tenant's sieve writes with hard
	// errors; the victim must keep writing through the open breaker.
	TKindErrorStorm = "error-storm"
	// TKindReadAfterStorm is TKindErrorStorm with the victim reading back
	// previously written data while the breaker is open.
	TKindReadAfterStorm = "read-after-storm"
	// TKindBrownout slows one OST under the noisy tenant until the slow
	// counts trip its breaker; nobody errors, the victim stays intact.
	TKindBrownout = "brownout-neighbor"
	// TKindRevokeStorm charges lock-revoke storms to the noisy tenant's
	// grants until the revoke counts trip a breaker.
	TKindRevokeStorm = "revoke-storm"
	// TKindAdmissionBurst exhausts a tenant's token bucket with a burst;
	// the excess must shed with typed errors, the other tenant unharmed.
	TKindAdmissionBurst = "admission-burst"
	// TKindDeadlineShed queues work behind an empty bucket until the queue
	// deadline sheds it.
	TKindDeadlineShed = "deadline-shed"
	// TKindFairShare queues one job per tenant and asserts the weighted
	// fair-share release order via last-writer-wins on a shared file.
	TKindFairShare = "fair-share"
	// TKindHalfOpen drives one breaker through the full trip cycle:
	// open, cooldown, half-open probe, closed.
	TKindHalfOpen = "half-open-recovery"
	// TKindInterferenceSoak runs several rounds of a bullying tenant, a
	// token-limited tenant, and a light tenant together, then checks the
	// noisy-neighbor analyzer fires on the resulting usage.
	TKindInterferenceSoak = "interference-soak"
)

// TenantScenario is one deterministic multi-tenant chaos experiment.
type TenantScenario struct {
	// Kind is the interference pattern (TKind constants).
	Kind string
	// Engine is the collective every tenant job runs ("core-nb",
	// "core-a2a", or "twophase").
	Engine string
	// Seed drives the fault schedule's probability coins.
	Seed int64
}

// Name is a stable identifier for logs, subtests, and artifact file names.
func (s TenantScenario) Name() string { return "tenant-" + s.Kind + "-" + s.Engine }

// Family is the tenant table.
func (s TenantScenario) Family() string { return "tenant" }

// Fault is the interference pattern.
func (s TenantScenario) Fault() string { return s.Kind }

// Baseline is nil: a tenant script's report diffs its own first two tenants
// (under interference, how the victim's run differs from its neighbor's).
func (s TenantScenario) Baseline() Cell { return nil }

// Access tiles. The noisy tile is several times the victim tile so
// interference scenarios generate a byte-dominant tenant.
var (
	noisyTile  = hpio.Pattern{Ranks: 4, RegionSize: 256, RegionCount: 16, Spacing: 256}
	victimTile = hpio.Pattern{Ranks: 2, RegionSize: 64, RegionCount: 8, Spacing: 64}
)

// tenantEnv is one scenario's world: a shared file system with a fault
// schedule, and the service hosting the tenants.
type tenantEnv struct {
	s     TenantScenario
	cfg   *sim.Config
	fs    *pfs.FileSystem
	svc   *tenant.Service
	sched *pfs.FaultSchedule
}

// sieveHardOn returns a rule failing file's sieve writes (every file's when
// empty) with hard errors: scoped to the noisy tenant's file, that tenant
// aborts (or degrades) while everyone else's files never match.
func sieveHardOn(file string) pfs.Rule {
	return pfs.Rule{Name: file, Kind: "write", Class: pfs.ClassIO,
		Match: func(op pfs.Op) bool { return op.Sieve }}
}

// setup builds the scenario's environment: breaker thresholds and the fault
// plan vary by kind, everything else is shared.
func (s TenantScenario) setup() (*tenantEnv, error) {
	e := &tenantEnv{s: s, cfg: sim.DefaultConfig()}
	e.fs = pfs.NewFileSystem(e.cfg)
	e.sched = pfs.NewFaultSchedule(s.Seed)

	var brk tenant.BreakerConfig
	switch s.Kind {
	case TKindErrorStorm, TKindReadAfterStorm, TKindHalfOpen, TKindInterferenceSoak:
		e.sched.Add(sieveHardOn("noisy.dat"))
	case TKindBrownout:
		brk.SlowTrip = 4
		e.sched.AddBrownout(pfs.Brownout{OST: 0, Slowdown: 8, ExtraLatency: 1e-4})
	case TKindRevokeStorm:
		brk.RevokeTrip = 8
		e.sched.AddStorm(pfs.RevokeStorm{PerGrant: 4})
	}
	e.fs.SetFaultSchedule(e.sched)

	svc, err := tenant.NewService(tenant.Config{FS: e.fs, Sim: e.cfg, Breakers: brk})
	if err != nil {
		return nil, err
	}
	e.svc = svc
	return e, nil
}

// job builds a tenant job under the scenario's engine. Write jobs verify
// the file image against the pattern reference; read jobs verify the bytes
// read back.
func (e *tenantEnv) job(name, file string, wl hpio.Pattern, write bool) tenant.Job {
	return tenant.Job{
		Name: name, File: file, Engine: e.s.Engine, Write: write,
		Pattern: wl, CollBuf: 1024, Verify: true, Trace: true,
	}
}

// soloImage runs the job alone on a fresh fault-free file system and
// returns the resulting file image: the survivors' ground truth.
func (e *tenantEnv) soloImage(job tenant.Job) ([]byte, error) {
	fs := pfs.NewFileSystem(e.cfg)
	svc, err := tenant.NewService(tenant.Config{FS: fs, Sim: e.cfg})
	if err != nil {
		return nil, err
	}
	if _, err := svc.AddTenant("solo", tenant.Limits{}); err != nil {
		return nil, err
	}
	if err := svc.SubmitWait("solo", job); err != nil {
		return nil, fmt.Errorf("solo reference run of %s: %w", job.Name, err)
	}
	return fs.Snapshot(job.File, job.Pattern.FileSize()), nil
}

// survivorIdentical asserts the shared file system holds exactly the bytes
// a fault-free solo run of job would have produced.
func (e *tenantEnv) survivorIdentical(job tenant.Job) error {
	want, err := e.soloImage(job)
	if err != nil {
		return err
	}
	got := e.fs.Snapshot(job.File, job.Pattern.FileSize())
	if !bytes.Equal(got, want) {
		return fmt.Errorf("survivor file %s differs from fault-free solo run", job.File)
	}
	return nil
}

// stat returns the named tenant's final stats.
func stat(stats []tenant.Stats, name string) tenant.Stats {
	for _, st := range stats {
		if st.Name == name {
			return st
		}
	}
	return tenant.Stats{}
}

// Run executes the scenario and checks its invariants. The returned error
// is a violation (nil means the scenario behaved); the outcome is returned
// even on violation so the caller can export artifacts.
func (s TenantScenario) Run() (*Outcome, error) {
	e, err := s.setup()
	if err != nil {
		return nil, err
	}
	var runErr error
	switch s.Kind {
	case TKindErrorStorm:
		runErr = e.runErrorStorm(false)
	case TKindReadAfterStorm:
		runErr = e.runErrorStorm(true)
	case TKindBrownout, TKindRevokeStorm:
		runErr = e.runSlowNeighbor()
	case TKindAdmissionBurst:
		runErr = e.runAdmissionBurst()
	case TKindDeadlineShed:
		runErr = e.runDeadlineShed()
	case TKindFairShare:
		runErr = e.runFairShare()
	case TKindHalfOpen:
		runErr = e.runHalfOpen()
	case TKindInterferenceSoak:
		runErr = e.runInterferenceSoak()
	default:
		return nil, fmt.Errorf("chaos: unknown tenant scenario kind %q", s.Kind)
	}
	out, err := e.outcome()
	if err != nil {
		return out, err
	}
	if runErr != nil {
		return out, runErr
	}
	return out, e.checkAccounting(out)
}

// outcome snapshots the final service state, exposition, and analysis, and
// every tenant's last traced job as a recording.
func (e *tenantEnv) outcome() (*Outcome, error) {
	out := &Outcome{
		Name:     e.s.Name(),
		Seed:     e.s.Seed,
		Tenants:  e.svc.TenantStats(),
		Breakers: e.svc.Breakers().Status(),
		Injected: e.sched.Injected(),
	}
	tripped := trips(out.Breakers)
	us := make([]analyze.TenantUsage, 0, len(out.Tenants))
	for _, st := range out.Tenants {
		us = append(us, analyze.TenantUsage{
			Name: st.Name, Ops: st.Ops, Bytes: st.Bytes,
			Shed: st.Shed(), Rejected: st.Rejected - st.Shed(),
			Degraded: st.Degraded, Trips: tripped,
		})
		if met, sink := e.svc.LastArtifacts(st.Name); met != nil || sink != nil {
			out.Recordings = append(out.Recordings, Recording{Label: st.Name, Trace: sink, Metrics: met})
		}
	}
	out.Findings = analyze.TenantFindings(us)

	var buf bytes.Buffer
	if err := e.svc.WriteProm(&buf); err != nil {
		return out, fmt.Errorf("exposition write failed: %w", err)
	}
	samples, err := metrics.ParseProm(&buf)
	if err != nil {
		return out, fmt.Errorf("exposition does not round-trip: %w", err)
	}
	out.Prom = samples
	return out, nil
}

// checkAccounting cross-checks the exposition against the stats and breaker
// snapshots: every admission rejection and breaker trip the scenario
// asserted on must also be visible to a Prometheus scrape.
func (e *tenantEnv) checkAccounting(out *Outcome) error {
	for _, st := range out.Tenants {
		key := fmt.Sprintf(`flexio_tenant_rejected_total{tenant=%q}`, st.Name)
		if got := int64(out.Prom[key]); got != st.Rejected {
			return fmt.Errorf("exposition %s = %d, stats say %d", key, got, st.Rejected)
		}
	}
	for _, b := range out.Breakers {
		key := fmt.Sprintf(`flexio_ost_breaker_trips_total{ost="%d"}`, b.OST)
		if got := int64(out.Prom[key]); got != b.Trips {
			return fmt.Errorf("exposition %s = %d, breakers say %d", key, got, b.Trips)
		}
	}
	return nil
}

// tripsTotal sums breaker trips right now.
func (e *tenantEnv) tripsTotal() int64 {
	return trips(e.svc.Breakers().Status())
}

// addNoisyAndVictim registers the unlimited pair most scripts host.
func (e *tenantEnv) addNoisyAndVictim() error {
	for _, name := range []string{"noisy", "victim"} {
		if _, err := e.svc.AddTenant(name, tenant.Limits{}); err != nil {
			return err
		}
	}
	return nil
}

// runErrorStorm: the noisy tenant's sieve writes fail hard. Its first job
// aborts and trips a breaker; the victim then runs through the open breaker
// (degraded), the noisy tenant's retry degrades and completes, and a clean
// probe closes the breaker.
func (e *tenantEnv) runErrorStorm(readBack bool) error {
	if err := e.addNoisyAndVictim(); err != nil {
		return err
	}
	victimWrite := e.job("victim-write", "victim.dat", victimTile, true)
	if readBack {
		// Seed the victim's file before the storm so the degraded phase
		// exercises the read path.
		if err := e.svc.SubmitWait("victim", victimWrite); err != nil {
			return fmt.Errorf("pre-storm victim write failed: %w", err)
		}
	}

	err := e.svc.SubmitWait("noisy", e.job("noisy-write", "noisy.dat", noisyTile, true))
	if err == nil {
		return errors.New("noisy job survived a hard sieve fault storm")
	}
	if !errors.Is(err, mpiio.ErrCollectiveAbort) {
		return fmt.Errorf("noisy job error does not wrap ErrCollectiveAbort: %v", err)
	}
	if !e.svc.Breakers().AnyOpen() {
		return errors.New("hard errors did not trip a breaker")
	}

	// The victim runs while the breaker is open: degraded, but intact.
	victimJob := victimWrite
	if readBack {
		victimJob = e.job("victim-read", "victim.dat", victimTile, false)
	}
	if err := e.svc.SubmitWait("victim", victimJob); err != nil {
		return fmt.Errorf("victim failed under open breaker: %w", err)
	}
	if st := stat(e.svc.TenantStats(), "victim"); st.Degraded == 0 {
		return errors.New("victim job under an open breaker was not counted degraded")
	}
	if err := e.survivorIdentical(victimWrite); err != nil {
		return err
	}

	// The noisy tenant retries: the open breaker routes it onto the
	// degraded path, which avoids (or falls back from) the poisoned sieve.
	if err := e.svc.SubmitWait("noisy", e.job("noisy-retry", "noisy.dat", noisyTile, true)); err != nil {
		return fmt.Errorf("noisy retry failed despite degraded routing: %w", err)
	}
	if err := e.survivorIdentical(e.job("noisy-retry", "noisy.dat", noisyTile, true)); err != nil {
		return err
	}

	// Cooldown, half-open, clean probe, closed.
	e.svc.Tick()
	e.svc.Tick()
	if err := e.svc.SubmitWait("victim", victimWrite); err != nil {
		return fmt.Errorf("half-open probe failed: %w", err)
	}
	for _, b := range e.svc.Breakers().Status() {
		if b.State != tenant.BreakerClosed {
			return fmt.Errorf("OST %d breaker ended %v, want closed", b.OST, b.State)
		}
	}
	if e.tripsTotal() == 0 {
		return errors.New("no breaker trips recorded")
	}
	return nil
}

// runSlowNeighbor: brownouts or revoke storms hurt the noisy tenant's OSTs
// without failing anything. The slow/revoke counts must still trip a
// breaker, and the victim must complete intact (degraded-routed).
func (e *tenantEnv) runSlowNeighbor() error {
	if err := e.addNoisyAndVictim(); err != nil {
		return err
	}
	if err := e.svc.SubmitWait("noisy", e.job("noisy-write", "noisy.dat", noisyTile, true)); err != nil {
		return fmt.Errorf("noisy job failed under %s (should only be slowed): %w", e.s.Kind, err)
	}
	if !e.svc.Breakers().AnyOpen() {
		return fmt.Errorf("%s did not trip a breaker", e.s.Kind)
	}
	victimJob := e.job("victim-write", "victim.dat", victimTile, true)
	if err := e.svc.SubmitWait("victim", victimJob); err != nil {
		return fmt.Errorf("victim failed under open breaker: %w", err)
	}
	if st := stat(e.svc.TenantStats(), "victim"); st.Degraded == 0 {
		return errors.New("victim job under an open breaker was not counted degraded")
	}
	if e.tripsTotal() == 0 {
		return errors.New("no breaker trips recorded")
	}
	return e.survivorIdentical(victimJob)
}

// runAdmissionBurst: a token-limited tenant bursts past its bucket. The
// excess sheds immediately with typed errors; the other tenant is unharmed.
func (e *tenantEnv) runAdmissionBurst() error {
	if _, err := e.svc.AddTenant("burst", tenant.Limits{Tokens: 2, Refill: -1}); err != nil {
		return err
	}
	if _, err := e.svc.AddTenant("victim", tenant.Limits{}); err != nil {
		return err
	}
	burstJob := e.job("burst-write", "burst.dat", victimTile, true)
	var ran, shed int
	for i := 0; i < 5; i++ {
		err := e.svc.SubmitWait("burst", burstJob)
		switch {
		case err == nil:
			ran++
		case errors.Is(err, tenant.ErrAdmissionRejected):
			var ae *tenant.AdmissionError
			if !errors.As(err, &ae) || ae.Reason != tenant.RejectQueueFull {
				return fmt.Errorf("shed job carries %v, want queue-full AdmissionError", err)
			}
			shed++
		default:
			return fmt.Errorf("burst job %d failed oddly: %w", i, err)
		}
	}
	if ran != 2 || shed != 3 {
		return fmt.Errorf("burst of 5 against 2 tokens: %d ran, %d shed; want 2/3", ran, shed)
	}
	if st := stat(e.svc.TenantStats(), "burst"); st.Rejected != 3 || st.ShedQueueFull != 3 {
		return fmt.Errorf("burst stats rejected=%d shedQueueFull=%d, want 3/3", st.Rejected, st.ShedQueueFull)
	}
	victimJob := e.job("victim-write", "victim.dat", victimTile, true)
	if err := e.svc.SubmitWait("victim", victimJob); err != nil {
		return fmt.Errorf("victim failed during a neighbor's burst: %w", err)
	}
	return e.survivorIdentical(victimJob)
}

// runDeadlineShed: jobs queued behind an empty, non-refilling bucket age
// out at the queue deadline.
func (e *tenantEnv) runDeadlineShed() error {
	lim := tenant.Limits{Tokens: 1, Refill: -1, QueueDepth: 4, DeadlineTicks: 2}
	if _, err := e.svc.AddTenant("slow", lim); err != nil {
		return err
	}
	if _, err := e.svc.AddTenant("victim", tenant.Limits{}); err != nil {
		return err
	}
	slowJob := e.job("slow-write", "slow.dat", victimTile, true)
	if err := e.svc.SubmitWait("slow", slowJob); err != nil {
		return fmt.Errorf("first slow job (token available) failed: %w", err)
	}
	p1, err := e.svc.Submit("slow", slowJob)
	if err != nil {
		return err
	}
	p2, err := e.svc.Submit("slow", slowJob)
	if err != nil {
		return err
	}
	e.svc.Tick()
	e.svc.Tick()
	for i, p := range []*tenant.Pending{p1, p2} {
		werr := p.Wait()
		var ae *tenant.AdmissionError
		if !errors.As(werr, &ae) || ae.Reason != tenant.RejectDeadline {
			return fmt.Errorf("queued job %d ended %v, want deadline AdmissionError", i, werr)
		}
	}
	if st := stat(e.svc.TenantStats(), "slow"); st.ShedDeadline != 2 {
		return fmt.Errorf("ShedDeadline = %d, want 2", st.ShedDeadline)
	}
	key := `flexio_tenant_shed_total{tenant="slow",reason="deadline"}`
	var buf bytes.Buffer
	if err := e.svc.WriteProm(&buf); err != nil {
		return err
	}
	samples, err := metrics.ParseProm(&buf)
	if err != nil {
		return err
	}
	if int64(samples[key]) != 2 {
		return fmt.Errorf("exposition %s = %v, want 2", key, samples[key])
	}
	victimJob := e.job("victim-write", "victim.dat", victimTile, true)
	if err := e.svc.SubmitWait("victim", victimJob); err != nil {
		return fmt.Errorf("victim failed while neighbor queue aged out: %w", err)
	}
	return e.survivorIdentical(victimJob)
}

// runFairShare: both tenants queue one write to the same file behind empty
// buckets. After a refill tick the light (high-weight) tenant must release
// first, so the heavy tenant's bytes win last-writer-wins — asserted by
// replaying that order fault-free and comparing images.
func (e *tenantEnv) runFairShare() error {
	lim := tenant.Limits{Tokens: 1, QueueDepth: 2, Weight: 1}
	if _, err := e.svc.AddTenant("heavy", lim); err != nil {
		return err
	}
	lim.Weight = 4
	if _, err := e.svc.AddTenant("light", lim); err != nil {
		return err
	}
	heavyShared := e.job("heavy-shared", "shared.dat", noisyTile, true)
	lightShared := e.job("light-shared", "shared.dat", victimTile, true)
	heavyShared.Verify = false // shared file: the image is an overlay
	lightShared.Verify = false

	// Spend both buckets (and build up the heavy tenant's consumed-byte
	// cost) on private files, then queue the shared writes.
	if err := e.svc.SubmitWait("heavy", e.job("heavy-warm", "heavy.dat", noisyTile, true)); err != nil {
		return err
	}
	if err := e.svc.SubmitWait("light", e.job("light-warm", "light.dat", victimTile, true)); err != nil {
		return err
	}
	ph, err := e.svc.Submit("heavy", heavyShared)
	if err != nil {
		return err
	}
	pl, err := e.svc.Submit("light", lightShared)
	if err != nil {
		return err
	}
	e.svc.Tick() // refill both buckets; drain in fair-share order
	if err := ph.Wait(); err != nil {
		return fmt.Errorf("heavy shared write failed: %w", err)
	}
	if err := pl.Wait(); err != nil {
		return fmt.Errorf("light shared write failed: %w", err)
	}

	// Replay the expected order (light first, heavy second) fault-free and
	// demand byte identity.
	fs := pfs.NewFileSystem(e.cfg)
	svc, err := tenant.NewService(tenant.Config{FS: fs, Sim: e.cfg})
	if err != nil {
		return err
	}
	if _, err := svc.AddTenant("replay", tenant.Limits{}); err != nil {
		return err
	}
	if err := svc.SubmitWait("replay", lightShared); err != nil {
		return err
	}
	if err := svc.SubmitWait("replay", heavyShared); err != nil {
		return err
	}
	size := noisyTile.FileSize()
	if sz := victimTile.FileSize(); sz > size {
		size = sz
	}
	if !bytes.Equal(e.fs.Snapshot("shared.dat", size), fs.Snapshot("shared.dat", size)) {
		return errors.New("shared file image does not match light-then-heavy release order")
	}
	return nil
}

// runHalfOpen drives one breaker through the complete cycle and asserts
// the state at every stage.
func (e *tenantEnv) runHalfOpen() error {
	if err := e.addNoisyAndVictim(); err != nil {
		return err
	}
	if err := e.svc.SubmitWait("noisy", e.job("noisy-write", "noisy.dat", noisyTile, true)); err == nil {
		return errors.New("noisy job survived a hard sieve fault storm")
	}
	if !e.svc.Breakers().AnyOpen() {
		return errors.New("hard errors did not trip a breaker")
	}
	e.svc.Tick()
	e.svc.Tick()
	if e.svc.Breakers().AnyOpen() {
		return errors.New("breaker still open after cooldown (want half-open)")
	}
	half := false
	for _, b := range e.svc.Breakers().Status() {
		if b.State == tenant.BreakerHalfOpen {
			half = true
		}
	}
	if !half {
		return errors.New("no breaker reached half-open after cooldown")
	}
	victimJob := e.job("victim-write", "victim.dat", victimTile, true)
	if err := e.svc.SubmitWait("victim", victimJob); err != nil {
		return fmt.Errorf("half-open probe failed: %w", err)
	}
	for _, b := range e.svc.Breakers().Status() {
		if b.State != tenant.BreakerClosed {
			return fmt.Errorf("OST %d breaker ended %v, want closed", b.OST, b.State)
		}
	}
	if got := e.tripsTotal(); got != 1 {
		return fmt.Errorf("breaker trips = %d, want exactly 1", got)
	}
	return e.survivorIdentical(victimJob)
}

// runInterferenceSoak: several rounds of a bullying tenant whose sieve
// writes fail, a token-limited steady tenant that sheds part of its load,
// and a light tenant. Both survivors must end byte-identical and the
// analyzer must call out the noisy neighbor.
func (e *tenantEnv) runInterferenceSoak() error {
	if _, err := e.svc.AddTenant("bully", tenant.Limits{}); err != nil {
		return err
	}
	if _, err := e.svc.AddTenant("steady", tenant.Limits{Tokens: 2, Refill: -1}); err != nil {
		return err
	}
	if _, err := e.svc.AddTenant("light", tenant.Limits{}); err != nil {
		return err
	}
	bullyJob := e.job("bully-write", "noisy.dat", noisyTile, true)
	steadyJob := e.job("steady-write", "steady.dat", victimTile, true)
	lightJob := e.job("light-write", "light.dat", victimTile, true)

	const rounds = 4
	var bullyOK, bullyAborted, steadyShed int
	for r := 0; r < rounds; r++ {
		switch err := e.svc.SubmitWait("bully", bullyJob); {
		case err == nil:
			bullyOK++
		case errors.Is(err, mpiio.ErrCollectiveAbort):
			bullyAborted++
		default:
			return fmt.Errorf("round %d: bully failed oddly: %w", r, err)
		}
		switch err := e.svc.SubmitWait("steady", steadyJob); {
		case err == nil:
		case errors.Is(err, tenant.ErrAdmissionRejected):
			steadyShed++
		default:
			return fmt.Errorf("round %d: steady failed: %w", r, err)
		}
		if err := e.svc.SubmitWait("light", lightJob); err != nil {
			return fmt.Errorf("round %d: light tenant failed: %w", r, err)
		}
		e.svc.Tick()
	}
	if bullyAborted == 0 {
		return errors.New("bully never aborted: fault storm missed")
	}
	if bullyOK == 0 {
		return errors.New("bully never recovered through degraded routing")
	}
	if steadyShed == 0 {
		return errors.New("steady tenant never shed: admission control missed")
	}
	if e.tripsTotal() == 0 {
		return errors.New("no breaker trips recorded")
	}
	if err := e.survivorIdentical(steadyJob); err != nil {
		return err
	}
	if err := e.survivorIdentical(lightJob); err != nil {
		return err
	}
	out, err := e.outcome()
	if err != nil {
		return err
	}
	for _, f := range out.Findings {
		if f.Code == "noisy-neighbor" {
			return nil
		}
	}
	return fmt.Errorf("analyzer missed the noisy neighbor (findings: %v)", out.Findings)
}

// tenantTable is the tenant family: the scripts across the engines the
// tenant service runs.
func tenantTable() []Cell {
	grid := []struct {
		kind    string
		engines []string
	}{
		{TKindErrorStorm, []string{"core-nb", "core-a2a", "twophase"}},
		{TKindReadAfterStorm, []string{"core-nb"}},
		{TKindBrownout, []string{"core-nb", "twophase"}},
		{TKindRevokeStorm, []string{"core-nb"}},
		{TKindAdmissionBurst, []string{"core-nb", "twophase"}},
		{TKindDeadlineShed, []string{"core-nb"}},
		{TKindFairShare, []string{"core-nb"}},
		{TKindHalfOpen, []string{"core-a2a"}},
		{TKindInterferenceSoak, []string{"core-nb", "twophase"}},
	}
	var cells []Cell
	for _, g := range grid {
		for _, eng := range g.engines {
			cells = append(cells, TenantScenario{Kind: g.kind, Engine: eng, Seed: 7001 + int64(len(cells))})
		}
	}
	return cells
}
