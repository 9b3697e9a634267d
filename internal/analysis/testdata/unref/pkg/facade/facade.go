// Package facade is the public-package fixture: its exports, option
// constructors or not, must each have a production caller.
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

// Size returns the configured size.
func (t *Thing) Size() int { return t.size }

// WithSize is set by the app: not reported.
func WithSize(n int) Option { return func(t *Thing) { t.size = n } }

// WithUnused is an option nothing sets: reported.
func WithUnused() Option { return func(*Thing) {} }

// Helper has no caller; that it returns no option does not save it:
// reported.
func Helper() int { return 3 }
