// Options-friendly construction of the analysis Config, for callers
// (notably pkg/aroma) that compose configuration declaratively instead
// of filling in struct fields.

package core

// AnalysisOption adjusts an analysis Config.
type AnalysisOption func(*Config)

// WithoutUserColumn disables the user side of every layer — the
// OSI-style device-only view the paper argues against (the ablation arm).
func WithoutUserColumn() AnalysisOption {
	return func(c *Config) { c.UserColumn = false }
}

// AnalyzeWith runs Analyze with DefaultConfig adjusted by opts.
func AnalyzeWith(s *System, opts ...AnalysisOption) *Report {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return Analyze(s, cfg)
}
