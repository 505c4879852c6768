package world

import (
	"fmt"
	"math"
	"time"

	"flock/internal/graph"
	"flock/internal/ids"
	"flock/internal/randx"
	"flock/internal/textkit"
	"flock/internal/vclock"
)

// Generate builds the full world from cfg. It is deterministic in
// cfg.Seed: equal configs yield identical worlds, at any GOMAXPROCS.
func Generate(cfg Config) (*World, error) {
	if cfg.NMigrants <= 0 {
		return nil, fmt.Errorf("world: NMigrants must be positive, got %d", cfg.NMigrants)
	}
	if cfg.PopulationFactor < 2 {
		cfg.PopulationFactor = 2
	}
	if cfg.NInstances < 10 {
		cfg.NInstances = 10
	}
	cfg.migrationTarget = 1.0 / float64(cfg.PopulationFactor)

	root := randx.New(cfg.Seed)
	w := &World{Cfg: cfg}

	w.genInstances(root.Split("instances"))
	if err := w.genUsers(root.Split("users")); err != nil {
		return nil, err
	}
	w.runMigration(root.Split("migration"))
	w.assignInstances(root.Split("instances-choice"))
	w.assignSwitching(root.Split("switching"))
	w.genPosts(root.Split("posts"))
	w.genMastodonGraph(root.Split("mastograph"))
	w.genActivity(root.Split("activity"))
	w.markDownInstances(root.Split("down"))
	w.finalize()
	return w, nil
}

// wellKnown are real instances anchoring the top of the popularity
// distribution, with their category and topic. mastodon.social must stay
// first: several paper statistics single it out.
var wellKnown = []struct {
	domain  string
	cat     InstanceCategory
	topic   textkit.Topic
	natives int // relative native population weight
}{
	{"mastodon.social", CatFlagship, textkit.TopicFediverse, 1000},
	{"mastodon.online", CatFlagship, textkit.TopicFediverse, 350},
	{"mstdn.social", CatFlagship, textkit.TopicFediverse, 300},
	{"mas.to", CatGeneral, textkit.TopicFediverse, 180},
	{"fosstodon.org", CatTopical, textkit.TopicTech, 150},
	{"hachyderm.io", CatTopical, textkit.TopicTech, 140},
	{"sigmoid.social", CatTopical, textkit.TopicAI, 90},
	{"mastodon.gamedev.place", CatTopical, textkit.TopicGameDev, 85},
	{"historians.social", CatTopical, textkit.TopicHistory, 50},
	{"photog.social", CatTopical, textkit.TopicPhotography, 45},
	{"metalhead.club", CatTopical, textkit.TopicMusic, 45},
	{"journa.host", CatTopical, textkit.TopicPolitics, 40},
	{"mastodonapp.uk", CatGeneral, textkit.TopicFediverse, 120},
	{"techhub.social", CatTopical, textkit.TopicTech, 70},
	{"mastodon.world", CatGeneral, textkit.TopicFediverse, 110},
	{"mastodon.art", CatTopical, textkit.TopicPhotography, 60},
	{"kolektiva.social", CatTopical, textkit.TopicPolitics, 35},
	{"indieweb.social", CatTopical, textkit.TopicTech, 40},
	{"mindly.social", CatGeneral, textkit.TopicFediverse, 60},
	{"universeodon.com", CatGeneral, textkit.TopicFediverse, 55},
}

// genInstances creates the instance roster: well-known heads, a Zipf tail
// of generated general/topical servers, and a reserved pool of personal
// instance slots bound to owners during migration.
func (w *World) genInstances(rng *randx.Source) {
	n := w.Cfg.NInstances
	// The paper's 13.16% single-user share is over instances that
	// RECEIVED migrants (~1/3 of the roster ends up receiving at this
	// scale), so personal slots are sized against that subset.
	nPersonal := int(math.Round(0.045 * float64(n)))
	if nPersonal < 3 {
		nPersonal = 3
	}
	nRegular := n - nPersonal
	if nRegular < len(wellKnown) {
		nRegular = len(wellKnown)
	}

	for i, wk := range wellKnown {
		if i >= nRegular {
			break
		}
		w.Instances = append(w.Instances, &Instance{
			ID:          i,
			Domain:      wk.domain,
			Category:    wk.cat,
			Topic:       wk.topic,
			NativeUsers: wk.natives * 3,
			OwnerUser:   -1,
		})
	}
	suffixes := []string{"social", "online", "club", "space", "town", "zone", "community", "place"}
	for i := len(w.Instances); i < nRegular; i++ {
		topic := textkit.Topic(rng.Intn(textkit.NumTopics))
		cat := CatTopical
		if rng.Bool(0.35) {
			cat = CatGeneral
			topic = textkit.TopicFediverse
		}
		domain := fmt.Sprintf("%s-%s-%d.%s", topic.String(), randx.Pick(rng, []string{"hub", "den", "nest", "haven", "corner"}), i, randx.Pick(rng, suffixes))
		// Native populations decay with roster position (plus noise), so
		// instance size correlates with the popularity rank used for
		// migrant placement — as it does in reality, where size and
		// discoverability feed each other.
		natives := int(2500/math.Pow(float64(i+4), 1.1)*rng.LogNormal(0, 0.35)) + 1
		w.Instances = append(w.Instances, &Instance{
			ID:          i,
			Domain:      domain,
			Category:    cat,
			Topic:       topic,
			NativeUsers: natives,
			OwnerUser:   -1,
		})
	}
	// Personal slots: domain assigned when an owner claims one.
	for i := len(w.Instances); i < nRegular+nPersonal; i++ {
		w.Instances = append(w.Instances, &Instance{
			ID:        i,
			Category:  CatPersonal,
			OwnerUser: -1,
			// Personal servers have no other users by definition.
			NativeUsers: 0,
		})
	}
}

// usernameFor builds a deterministic plausible username.
func usernameFor(rng *randx.Source, id int) string {
	first := []string{"alex", "sam", "kai", "noor", "lena", "remy", "juno", "mara", "theo", "ivy",
		"owen", "zara", "finn", "nova", "eli", "wren", "ada", "hugo", "mina", "arlo"}
	second := []string{"writes", "codes", "draws", "reads", "runs", "maps", "bakes", "films", "sings", "hikes",
		"studies", "builds", "paints", "plays", "thinks", "travels", "teaches", "photographs", "dreams", "games"}
	name := randx.Pick(rng, first) + "_" + randx.Pick(rng, second)
	return fmt.Sprintf("%s%d", name, id)
}

// genUsers creates the population, the Twitter graph, personas and
// account-state flags.
func (w *World) genUsers(rng *randx.Source) error {
	n := w.Cfg.NMigrants * w.Cfg.PopulationFactor
	g, comm, err := graph.Generate(graph.Config{
		N:           n,
		Communities: textkit.NumTopics,
		MeanOut:     w.Cfg.MeanOutDegree,
		IntraBias:   0.78,
		Reciprocity: 0.25,
	}, rng.Split("graph"))
	if err != nil {
		return err
	}
	w.Graph = g

	gen := ids.NewGenerator(1)
	urng := rng.Split("personas")
	w.Users = make([]*User, n)
	for i := 0; i < n; i++ {
		r := urng.SplitN("user", i)
		// Twitter account ages: lognormal around ~11.5 years (median),
		// in days before the study start.
		ageDays := r.LogNormal(math.Log(11.5*365), 0.6)
		if ageDays < 30 {
			ageDays = 30
		}
		if ageDays > 16.5*365 { // Twitter launched 2006
			ageDays = 16.5 * 365
		}
		created := vclock.StudyStart.Add(-time.Duration(ageDays*24) * time.Hour)
		username := usernameFor(r, i)
		// Dedication: Beta-shaped via min of uniforms; most users casual,
		// a committed tail.
		d := r.Float64()
		d = d * d // skew low
		dedication := 0.08 + 0.92*d
		// Toxicity propensity: exponential with the configured mean,
		// clipped. Status propensity is proportionally lower (§6.3).
		tp := r.Exp(1 / w.Cfg.ToxicTweetRate)
		if tp > 0.5 {
			tp = 0.5
		}
		sp := tp * (w.Cfg.ToxicStatusRate / w.Cfg.ToxicTweetRate)
		w.Users[i] = &User{
			ID:               i,
			TwitterID:        gen.At(created),
			Username:         username,
			DisplayName:      username,
			Topic:            textkit.Topic(comm[i] % textkit.NumTopics),
			Verified:         r.Bool(w.Cfg.VerifiedProb),
			TwitterCreatedAt: created,
			Dedication:       dedication,
			ToxicTweetP:      tp,
			ToxicStatusP:     sp,
			FirstInstance:    -1,
			SecondInstance:   -1,
		}
	}
	return nil
}

// finalize computes derived aggregates.
func (w *World) finalize() {
	w.MigrantsPerInstance = make([]int, len(w.Instances))
	for _, idx := range w.Migrants {
		u := w.Users[idx]
		w.MigrantsPerInstance[u.FinalInstance()]++
	}
}
