// Package ids generates the identifier formats the simulated platforms
// use: time-ordered snowflake-style numeric IDs for tweets and Mastodon
// statuses, and compact account IDs.
//
// Twitter's and Mastodon's real IDs are both snowflakes: a millisecond
// timestamp in the high bits plus worker/sequence low bits. Preserving
// that structure matters for the reproduction because the crawler relies
// on ID ordering for pagination (max_id / since_id semantics).
package ids

import (
	"fmt"
	"strconv"
	"time"
)

// epoch is the custom epoch for generated snowflakes (2010-01-01 UTC),
// early enough that pre-study account-creation times are representable.
var epoch = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// Snowflake is a 63-bit time-ordered identifier:
// 41 bits of milliseconds since epoch, 10 bits of shard, 12 bits sequence.
type Snowflake uint64

// Generator mints snowflakes for a single shard. It is not safe for
// concurrent use; the world generator mints every ID in one serial pass
// (determinism), and each simulated service owns its own Generator.
type Generator struct {
	shard    uint64
	lastMs   int64
	sequence uint64
}

// NewGenerator returns a Generator for the given shard (0..1023).
func NewGenerator(shard int) *Generator {
	if shard < 0 || shard > 1023 {
		panic("ids: shard out of range")
	}
	return &Generator{shard: uint64(shard)}
}

// At mints a snowflake for virtual time t. Calls with non-decreasing t
// yield strictly increasing IDs; the per-millisecond sequence counter
// disambiguates bursts.
func (g *Generator) At(t time.Time) Snowflake {
	ms := t.Sub(epoch).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms == g.lastMs {
		g.sequence++
		if g.sequence >= 4096 {
			// Sequence exhausted within one millisecond: borrow the next.
			g.lastMs++
			g.sequence = 0
			ms = g.lastMs
		}
	} else if ms > g.lastMs {
		g.lastMs = ms
		g.sequence = 0
	} else {
		// Clock went backwards relative to the last mint; reuse lastMs to
		// preserve monotonicity.
		ms = g.lastMs
		g.sequence++
		if g.sequence >= 4096 {
			g.lastMs++
			g.sequence = 0
			ms = g.lastMs
		}
	}
	return Snowflake(uint64(ms)<<22 | g.shard<<12 | g.sequence)
}

// Time extracts the embedded timestamp.
func (s Snowflake) Time() time.Time {
	ms := int64(s >> 22)
	return epoch.Add(time.Duration(ms) * time.Millisecond)
}

// String renders the ID as the decimal string used in API payloads.
func (s Snowflake) String() string {
	return strconv.FormatUint(uint64(s), 10)
}

// Parse parses a decimal snowflake string.
func Parse(str string) (Snowflake, error) {
	v, err := strconv.ParseUint(str, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ids: parse %q: %w", str, err)
	}
	return Snowflake(v), nil
}
