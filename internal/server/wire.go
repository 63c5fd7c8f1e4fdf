package server

import (
	"encoding/json"
	"fmt"
	"time"

	"verdict/internal/abstract"
	"verdict/internal/cache"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/models/rollout"
	"verdict/internal/resilience"
	"verdict/internal/smvlang"
	"verdict/internal/topo"
	"verdict/internal/ts"
)

// CheckRequest is the POST /v1/checks body.
type CheckRequest struct {
	// Model is the textual .vsmv source.
	Model string `json:"model"`
	// Property, when set, is an LTL formula checked against the model
	// (overrides Spec). It is parsed in the model's scope, so it may
	// reference the model's variables and DEFINEs.
	Property string `json:"property,omitempty"`
	// Spec selects an LTLSPEC of the model by index (default 0) when
	// Property is empty.
	Spec int `json:"spec,omitempty"`
	// Scenario, when set, selects a built-in generated model instead of
	// textual source (Model must be empty).
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	// Options tunes the check.
	Options OptionsRequest `json:"options,omitempty"`
}

// ScenarioRequest names a built-in scenario and its parameters, so
// clients can submit large generated instances (a fat-tree rollout)
// without shipping megabytes of rendered model text.
type ScenarioRequest struct {
	// Name is the scenario; only "rollout" is served.
	Name string `json:"name"`
	// Topo is a built-in topology name: "test" or "fattreeN" (N even).
	Topo string `json:"topo"`
	// P, K, M are the rollout parameters (defaults 1, 0, 1): update
	// concurrency, link-failure budget, availability floor.
	P int `json:"p,omitempty"`
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// Abstract routes the check through the symmetry quotient with
	// CEGAR refinement. The cache key is the canonical render of the
	// *initial* quotient — deterministic for a given topology content —
	// so identical abstracted submissions collapse onto one job and one
	// cache entry. Violated verdicts carry a concrete, replay-certified
	// trace, exactly like concrete checks.
	Abstract bool `json:"abstract,omitempty"`
}

// OptionsRequest is the JSON form of the check options a client may
// set. Fields the request leaves zero get the server's defaults; the
// normalized (post-default) form is part of the cache key, so an
// explicit default and an omitted field address the same cache entry.
type OptionsRequest struct {
	// MaxDepth bounds BMC unrolling / induction depth (capped by the
	// server's Config.MaxDepth).
	MaxDepth int `json:"max_depth,omitempty"`
	// TimeoutMS bounds wall clock; the server's DefaultTimeout applies
	// when unset and also acts as the ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SATConflicts and BDDNodes are the mc.Budget dimensions;
	// exhaustion degrades to an "unknown" verdict.
	SATConflicts int64 `json:"sat_conflicts,omitempty"`
	BDDNodes     int   `json:"bdd_nodes,omitempty"`
	// RetryAttempts re-runs an unknown verdict with budgets scaled 4x
	// per attempt (the CLI's -retry-budgets ladder), clamped to the
	// server's Config.MaxRetryAttempts. Every attempt stays under the
	// per-check wall-clock ceiling.
	RetryAttempts int `json:"retry_attempts,omitempty"`
}

// CheckResponse is the wire form of a job snapshot.
type CheckResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached is true when a submission was answered from the result
	// cache or collapsed onto an identical in-flight job.
	Cached bool       `json:"cached,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *mc.Result `json:"result,omitempty"`
	// Witness reports the independent validation outcome for the
	// verdict's evidence: "validated", "failed", "skipped" (state space
	// too large to enumerate a certificate), or "none" (no evidence to
	// validate). Empty until the job settles.
	Witness string `json:"witness,omitempty"`
}

// compiled is a request after parsing, option normalization, and
// content addressing.
type compiled struct {
	// id is the content address: a prefix of cache.Key over exactly
	// the inputs that determine the verdict.
	id   string
	sys  *ts.System
	phi  *ltl.Formula
	opts mc.Options
	pol  resilience.RetryPolicy
	// abs, when non-nil, switches the job to the symmetry-quotient
	// CEGAR pipeline over this rollout instance; sys/phi then hold the
	// initial quotient (the content address), not the checked system.
	abs *rollout.Config
}

// compile parses the model, resolves the property, normalizes the
// options, and derives the content address. The key covers exactly
// the inputs that determine the verdict: canonical model text,
// property text, and normalized options — not, e.g., worker counts.
func (s *Server) compile(req CheckRequest) (*compiled, error) {
	if req.Scenario != nil {
		if req.Model != "" {
			return nil, fmt.Errorf("request has both a model and a scenario; submit one")
		}
		return s.compileScenario(req)
	}
	if req.Model == "" {
		return nil, fmt.Errorf("request has no model")
	}
	prog, err := smvlang.Parse(req.Model)
	if err != nil {
		return nil, fmt.Errorf("model does not parse: %w", err)
	}
	// Render of a parsed program is canonical (sorted declarations,
	// parser-normalized expression shapes), so byte-equal keys mean
	// semantically equal checks regardless of the source's formatting.
	canonical := smvlang.Render(&smvlang.Program{Sys: prog.Sys})
	sys := prog.Sys
	var phi *ltl.Formula
	switch {
	case req.Property != "":
		// Parse the property in the model's scope by appending it as
		// one more LTLSPEC section — then verify the splice added
		// exactly that and nothing else. Without the check, a
		// "property" like "G x; LTLSPEC G y" parses as several
		// sections and the verdict would answer a different formula
		// than the client believes it submitted.
		spliced, err := smvlang.Parse(req.Model + "\nLTLSPEC\n  " + req.Property + ";\n")
		if err != nil {
			return nil, fmt.Errorf("property does not parse: %w", err)
		}
		if len(spliced.LTLSpecs) != len(prog.LTLSpecs)+1 ||
			len(spliced.CTLSpecs) != len(prog.CTLSpecs) ||
			smvlang.Render(&smvlang.Program{Sys: spliced.Sys}) != canonical {
			return nil, fmt.Errorf("property must be a single LTL formula")
		}
		// Formula atoms reference system variables by pointer, so the
		// checked system must come from the same parse as phi.
		sys = spliced.Sys
		phi = spliced.LTLSpecs[len(spliced.LTLSpecs)-1]
	case len(prog.LTLSpecs) == 0:
		return nil, fmt.Errorf("model has no LTLSPEC and the request names no property")
	case req.Spec < 0 || req.Spec >= len(prog.LTLSpecs):
		return nil, fmt.Errorf("spec index %d out of range (model has %d LTLSPECs)", req.Spec, len(prog.LTLSpecs))
	default:
		phi = prog.LTLSpecs[req.Spec]
	}

	opts, pol, normalized := s.normalizeOptions(req.Options)
	key := cache.Key(canonical, phi.String(), normalized)
	return &compiled{id: key[:32], sys: sys, phi: phi, opts: opts, pol: pol}, nil
}

// recompile rebuilds the compiled check of a journaled, shadowed, or
// stolen request from its JSON bytes.
func (s *Server) recompile(reqJSON json.RawMessage) (*compiled, error) {
	var req CheckRequest
	if err := json.Unmarshal(reqJSON, &req); err != nil {
		return nil, err
	}
	return s.compile(req)
}

// compileScenario builds a scenario submission: the rollout model is
// generated from the named topology, and with Abstract set the content
// address is derived from the initial quotient's canonical render —
// byte-deterministic for a given topology content (the determinism
// property tests in internal/abstract pin this), so abstracted
// re-submissions are cache hits.
func (s *Server) compileScenario(req CheckRequest) (*compiled, error) {
	sc := req.Scenario
	if sc.Name != "rollout" {
		return nil, fmt.Errorf("unknown scenario %q (the daemon serves \"rollout\")", sc.Name)
	}
	g, err := topo.ByName(sc.Topo)
	if err != nil {
		return nil, err
	}
	cfg := rollout.Config{Topo: g, P: sc.P, K: sc.K, M: sc.M}
	if cfg.P <= 0 {
		cfg.P = 1
	}
	if cfg.M <= 0 {
		cfg.M = 1
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("scenario k must be >= 0, got %d", cfg.K)
	}
	opts, pol, normalized := s.normalizeOptions(req.Options)
	if sc.Abstract {
		q, err := abstract.BuildQuotient(cfg, abstract.NewPartition(g))
		if err != nil {
			return nil, fmt.Errorf("scenario does not abstract: %w", err)
		}
		// Canonical() covers the quotient system and its LTLSPEC; the
		// "abstract" marker keeps an abstracted submission from ever
		// colliding with a concrete model a client might render to the
		// same text.
		key := cache.Key(q.Canonical(), q.Property.String(), normalized+" abstract=1")
		return &compiled{id: key[:32], sys: q.Sys, phi: q.Property,
			opts: opts, pol: pol, abs: &cfg}, nil
	}
	cm, err := rollout.Build(cfg)
	if err != nil {
		return nil, err
	}
	canonical := smvlang.Render(&smvlang.Program{Sys: cm.Sys})
	key := cache.Key(canonical, cm.Property.String(), normalized)
	return &compiled{id: key[:32], sys: cm.Sys, phi: cm.Property,
		opts: opts, pol: pol}, nil
}

// normalizeOptions applies defaults and ceilings, returning both the
// engine options and the canonical option string folded into the
// cache key.
func (s *Server) normalizeOptions(o OptionsRequest) (mc.Options, resilience.RetryPolicy, string) {
	depth := o.MaxDepth
	if depth <= 0 || depth > s.cfg.MaxDepth {
		if depth > s.cfg.MaxDepth {
			depth = s.cfg.MaxDepth
		} else {
			depth = 25
		}
	}
	timeout := time.Duration(o.TimeoutMS) * time.Millisecond
	if timeout <= 0 || timeout > s.cfg.DefaultTimeout {
		timeout = s.cfg.DefaultTimeout
	}
	opts := mc.Options{
		MaxDepth: depth,
		Context:  s.baseCtx,
		Budget: mc.Budget{
			SATConflicts: max(o.SATConflicts, 0),
			BDDNodes:     max(o.BDDNodes, 0),
		},
		// The daemon serves cached verdicts to clients that never saw
		// the engine run, so every verdict's evidence is independently
		// validated before it is stored. Unconditional, hence not part
		// of the cache key.
		ValidateWitness: true,
	}
	retries := o.RetryAttempts
	if retries < 0 {
		retries = 0
	}
	if retries > s.cfg.MaxRetryAttempts {
		retries = s.cfg.MaxRetryAttempts
	}
	var pol resilience.RetryPolicy
	if retries > 0 {
		// Mirror the CLI: under a retry ladder the wall clock is a
		// per-attempt budget to escalate. The budget only escalates
		// UNDER the server ceiling: opts.Timeout stays pinned at
		// DefaultTimeout and the engine takes the tighter of the two
		// bounds, so even the last attempt cannot exceed it and one
		// request holds a worker for at most
		// MaxRetryAttempts × DefaultTimeout.
		opts.Budget.Time = timeout
		opts.Timeout = s.cfg.DefaultTimeout
		pol = resilience.RetryPolicy{Attempts: retries, Factor: 4, MaxScale: maxRetryScale}
	} else {
		opts.Timeout = timeout
	}
	// The key folds in the clamped retry count, so an over-limit ask
	// and its clamped form address the same cache entry.
	normalized := fmt.Sprintf("depth=%d timeout=%s sat=%d bdd=%d retries=%d",
		depth, timeout, opts.Budget.SATConflicts, opts.Budget.BDDNodes, retries)
	return opts, pol, normalized
}

// maxRetryScale caps the cumulative budget multiplier of a retry
// ladder (4^3 — the full ladder at the default MaxRetryAttempts), so
// SAT-conflict/BDD-node budgets cannot escalate without bound even if
// an operator raises the attempt cap.
const maxRetryScale = 64
