package cp

// Scorer prices a plan with Evaluate. It stays only because the
// benchmark's traced plan runs name it, and goes when ROADMAP item 1
// removes that use.
type Scorer struct{ p *Problem }

// NewScorer returns a Scorer for the problem.
func NewScorer(p *Problem) *Scorer { return &Scorer{p} }

// Reset does nothing: a Scorer holds no assignment.
func (s *Scorer) Reset(a *Assignment) {}

// Rescore returns a full Evaluate of a, whatever genes changed.
func (s *Scorer) Rescore(a *Assignment, changed []Gene) Cost { return s.p.Evaluate(a) }
