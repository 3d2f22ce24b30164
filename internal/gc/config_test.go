package gc

import "testing"

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.HeapBytes != 32<<20 {
		t.Errorf("HeapBytes = %d, want 32MB", c.HeapBytes)
	}
	if c.YoungBytes != 4<<20 {
		t.Errorf("YoungBytes = %d, want 4MB", c.YoungBytes)
	}
	if c.CardBytes != 16 {
		t.Errorf("CardBytes = %d, want 16 (object marking)", c.CardBytes)
	}
	if c.OldAge != 3 {
		t.Errorf("OldAge = %d, want 3 (paper age 4)", c.OldAge)
	}
	if err := c.validate(); err != nil {
		t.Errorf("defaults do not validate: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{}.withDefaults()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad mode", func(c *Config) { c.Mode = Mode(99) }},
		{"bad card size", func(c *Config) { c.CardBytes = 24 }},
		{"card too big", func(c *Config) { c.CardBytes = 8192 }},
		{"young > heap", func(c *Config) { c.YoungBytes = c.HeapBytes * 2 }},
		{"old age", func(c *Config) { c.OldAge = 5000 }},
		{"negative stall timeout", func(c *Config) { c.StallTimeout = -1 }},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, c)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if NonGenerational.String() != "non-generational" ||
		Generational.String() != "generational" ||
		GenerationalAging.String() != "generational+aging" {
		t.Error("mode strings wrong")
	}
	if NonGenerational.IsGenerational() {
		t.Error("non-generational reports generational")
	}
	if !Generational.IsGenerational() || !GenerationalAging.IsGenerational() {
		t.Error("generational modes not reported generational")
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusAsync.String() != "async" || StatusSync1.String() != "sync1" || StatusSync2.String() != "sync2" {
		t.Error("status strings wrong")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{CardBytes: 7}); err == nil {
		t.Error("New accepted bad card size")
	}
}
