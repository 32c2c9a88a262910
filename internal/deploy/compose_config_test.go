package deploy

import (
	"errors"
	"testing"
)

// TestConfigRequiresComposition: Composition is the only way to name a
// protocol, so a Config without one is rejected by both constructors.
func TestConfigRequiresComposition(t *testing.T) {
	if _, err := New(Config{F: 1}); !errors.Is(err, errNoComposition) {
		t.Fatalf("New without Composition: err = %v, want %v", err, errNoComposition)
	}
	if _, err := NewSharded(Config{F: 1}); !errors.Is(err, errNoComposition) {
		t.Fatalf("NewSharded without Composition: err = %v, want %v", err, errNoComposition)
	}
}
