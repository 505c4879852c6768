// Package analysis computes every result in the paper's evaluation
// (Figs. 1–16 plus the in-text statistics) from a crawled Dataset. It
// never touches world ground truth: its inputs are exactly what the
// paper's authors had.
package analysis

import (
	"sort"
	"time"

	"flock/internal/crawler"
	"flock/internal/stats"
	"flock/internal/vclock"
)

// InstanceCount is one bar of Fig. 4: migrants whose accounts were
// created before vs after the acquisition, per instance.
type InstanceCount struct {
	Domain string
	Pre    int
	Post   int
}

// Total returns Pre+Post.
func (c InstanceCount) Total() int { return c.Pre + c.Post }

// SizeBucket is one instance-size quantile of Fig. 6 with the CDFs of
// its users' Mastodon network sizes and status counts.
type SizeBucket struct {
	Label     string
	Instances int
	Users     int
	Followers *stats.ECDF
	Followees *stats.ECDF
	Statuses  *stats.ECDF
}

// Centralization is the RQ1 result set (§4, Figs. 4–6).
type Centralization struct {
	// TopInstances are the Fig. 4 bars (descending by total).
	TopInstances []InstanceCount
	// TopShareCurve is Fig. 5: fraction of users on the top-x% instances.
	TopShareCurve []stats.Point
	// Top25Share is the headline number (paper: 96%).
	Top25Share float64
	// PreTakeoverAccountFrac: accounts created before the acquisition
	// (paper: 21%).
	PreTakeoverAccountFrac float64
	// SingleUserInstanceFrac: instances with exactly one migrant
	// (paper: 13.16%).
	SingleUserInstanceFrac float64
	// Buckets are the Fig. 6 size quantiles (ascending size), with
	// "single-user" broken out as its own first bucket.
	Buckets []SizeBucket
	// SingleVsLargest compares single-user-instance users to users of
	// the largest-quantile instances (paper: +64.88% followers, +99.04%
	// followees, +121.14% statuses).
	SingleVsLargest struct {
		FollowerBoost float64
		FolloweeBoost float64
		StatusBoost   float64
	}
	// InstancesReceiving is the count of distinct instances with >= 1
	// migrant (paper: 2,879).
	InstancesReceiving int
	// VerifiedFrac is the share of legacy-verified migrants (paper: 4%).
	VerifiedFrac float64
	// SameUsernameFrac is the share reusing their Twitter username
	// (paper: 72%).
	SameUsernameFrac float64
	// Gini of migrants across instances (not in the paper; a compact
	// centralization scalar for the report).
	Gini float64
}

// RQ1 computes the centralization results.
func (e Engine) RQ1(ds *crawler.Dataset) *Centralization {
	out := &Centralization{}
	n := len(ds.Pairs)
	if n == 0 {
		return out
	}

	// Migrants per final instance, split by account-creation time.
	perInstance := map[string]*InstanceCount{}
	pre, verified, sameUsername := 0, 0, 0
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		domain := p.FinalDomain()
		c := perInstance[domain]
		if c == nil {
			c = &InstanceCount{Domain: domain}
			perInstance[domain] = c
		}
		if p.MastodonVerified && p.MastodonCreatedAt.Before(vclock.Takeover) {
			c.Pre++
			pre++
		} else {
			c.Post++
		}
		if p.Verified {
			verified++
		}
		if p.SameUsername {
			sameUsername++
		}
	}
	out.PreTakeoverAccountFrac = float64(pre) / float64(n)
	out.VerifiedFrac = float64(verified) / float64(n)
	out.SameUsernameFrac = float64(sameUsername) / float64(n)
	out.InstancesReceiving = len(perInstance)

	counts := make([]InstanceCount, 0, len(perInstance))
	for _, c := range perInstance {
		counts = append(counts, *c)
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Total() != counts[j].Total() {
			return counts[i].Total() > counts[j].Total()
		}
		return counts[i].Domain < counts[j].Domain
	})
	if len(counts) > 30 {
		out.TopInstances = counts[:30]
	} else {
		out.TopInstances = counts
	}

	// Fig. 5 ranks ALL indexed instances by size (user count from the
	// index crawl) and plots the share of migrated users hosted by the
	// top x%. Instances that received no migrants contribute rank but no
	// mass — that is what makes "96% of users on the top 25% of
	// instances" and "13.16% of instances have a single user"
	// simultaneously satisfiable.
	migrantsOn := map[string]int{}
	for _, c := range counts {
		migrantsOn[c.Domain] = c.Total()
	}
	rank := make([]int, 0, len(ds.Instances))
	mass := make([]int, 0, len(ds.Instances))
	seen := map[string]bool{}
	for _, inst := range ds.Instances {
		rank = append(rank, inst.Users)
		mass = append(mass, migrantsOn[inst.Name])
		seen[inst.Name] = true
	}
	// Receiving domains missing from the index (rare: freshly created
	// personal servers) still belong on the curve.
	for _, c := range counts {
		if !seen[c.Domain] {
			rank = append(rank, 1)
			mass = append(mass, c.Total())
		}
	}
	single := 0
	for _, c := range counts {
		if c.Total() == 1 {
			single++
		}
	}
	out.TopShareCurve = stats.TopShareBy(rank, mass, 100)
	if len(out.TopShareCurve) >= 25 {
		out.Top25Share = out.TopShareCurve[24].Y
	}
	out.SingleUserInstanceFrac = float64(single) / float64(len(counts))
	massOnly := make([]int, len(counts))
	for i, c := range counts {
		massOnly[i] = c.Total()
	}
	out.Gini = stats.Gini(massOnly)

	out.computeBuckets(ds, perInstance)
	return out
}

// computeBuckets builds the Fig. 6 quantile CDFs over the §4 cohort:
// users who joined after the acquisition with accounts at least 30 days
// old at crawl time.
func (c *Centralization) computeBuckets(ds *crawler.Dataset, perInstance map[string]*InstanceCount) {
	type member struct {
		p    *crawler.AccountPair
		size int // migrants on the user's instance
	}
	// Bucket 0: single-user instances; buckets 1..4: size quartiles of
	// the rest. Both keep pair order.
	var singles, rest []member
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if !p.MastodonVerified || p.MastodonCreatedAt.Before(vclock.Takeover) ||
			vclock.CrawlTime.Sub(p.MastodonCreatedAt) < 30*24*time.Hour {
			continue // §4: joined after the acquisition, at least 30 days old
		}
		ic := perInstance[p.FinalDomain()]
		if ic == nil {
			continue
		}
		if m := (member{p, ic.Total()}); m.size == 1 {
			singles = append(singles, m)
		} else {
			rest = append(rest, m)
		}
	}
	if len(singles)+len(rest) == 0 {
		return
	}
	// A bucket's Instances counts its distinct instance sizes, not its
	// domains, so it undercounts; fixing that changes the goldens.
	mk := func(label string, ms []member, sizes map[int]bool) SizeBucket {
		var fol, fee, st []float64
		for _, m := range ms {
			fol = append(fol, float64(m.p.MastodonFollowers))
			fee = append(fee, float64(m.p.MastodonFollowing))
			st = append(st, float64(m.p.MastodonStatuses))
		}
		return SizeBucket{
			Label:     label,
			Instances: len(sizes),
			Users:     len(ms),
			Followers: stats.NewECDF(fol),
			Followees: stats.NewECDF(fee),
			Statuses:  stats.NewECDF(st),
		}
	}
	singleSizes := map[int]bool{}
	if len(singles) > 0 {
		singleSizes[1] = true
	}
	c.Buckets = append(c.Buckets, mk("single-user", singles, singleSizes))
	if len(rest) > 0 {
		sizesF := make([]float64, len(rest))
		for i, m := range rest {
			sizesF[i] = float64(m.size)
		}
		grouped := make([][]member, 4)
		sizes := make([]map[int]bool, 4)
		for i := range sizes {
			sizes[i] = map[int]bool{}
		}
		for i, b := range stats.QuantileBuckets(sizesF, 4) {
			grouped[b] = append(grouped[b], rest[i])
			sizes[b][rest[i].size] = true
		}
		labels := []string{"q1 (smallest)", "q2", "q3", "q4 (largest)"}
		for i, g := range grouped {
			c.Buckets = append(c.Buckets, mk(labels[i], g, sizes[i]))
		}
	}
	// Single vs largest quantile boosts.
	if len(c.Buckets) >= 2 {
		s := c.Buckets[0]
		l := c.Buckets[len(c.Buckets)-1]
		if s.Users > 0 && l.Users > 0 {
			boost := func(a, b *stats.ECDF) float64 {
				am, bm := meanOf(a), meanOf(b)
				if bm == 0 {
					return 0
				}
				return (am - bm) / bm
			}
			c.SingleVsLargest.FollowerBoost = boost(s.Followers, l.Followers)
			c.SingleVsLargest.FolloweeBoost = boost(s.Followees, l.Followees)
			c.SingleVsLargest.StatusBoost = boost(s.Statuses, l.Statuses)
		}
	}
}

// meanOf computes the mean of an ECDF's samples via its points.
func meanOf(e *stats.ECDF) float64 {
	if e.N() == 0 {
		return 0
	}
	pts := e.Points(e.N())
	var sum float64
	for _, p := range pts {
		sum += p.X
	}
	return sum / float64(len(pts))
}
