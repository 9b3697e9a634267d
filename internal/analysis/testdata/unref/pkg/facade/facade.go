// Package facade is the option guard's fixture: a public package whose
// option constructors must each have a production caller.
package facade

// Option configures a Thing.
type Option func(*Thing)

// Thing is what the options configure.
type Thing struct{ size int }

// New builds a Thing from options.
func New(opts ...Option) *Thing {
	t := &Thing{}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// WithSize is set by the app: not reported.
func WithSize(n int) Option { return func(t *Thing) { t.size = n } }

// WithUnused is an option nothing sets: reported.
func WithUnused() Option { return func(*Thing) {} }

// Helper has no caller but returns no option, and the guard checks only
// options outside internal packages: not reported.
func Helper() int { return 3 }
