package surfaceweb

import "testing"

// FuzzParseQuery lives in parse_fuzz_test.go, where it checks the
// parser against the reference implementation and the compiled form.

// fuzzTexts is a small corpus of repeated words whose documents end
// with the start of a phrase the next one continues ("such" / "as
// Delta", "airlines" / "such as"), so a phrase check that crossed a
// document boundary would find matches the oracle does not.
var fuzzTexts = []string{
	"Airlines such as Delta fly from Boston to Chicago daily.",
	"as Delta and other airlines such",
	"as United; such airlines such as such airlines",
	"Boston Boston, the Boston airlines",
	"such as",
	"Delta",
}

// FuzzEngineQueries checks every read of a fuzzed query — hit count,
// ranked search with snippets at several k, and a batch — against the
// linear-scan oracle, at the default snippet radius and a small one.
func FuzzEngineQueries(f *testing.F) {
	for _, q := range []string{
		`"airlines such as" +delta`, "boston", `"`, `"such as delta"`, `"airlines such"`,
		`"such airlines such as"`, `"as delta" +boston`, `"boston boston"`, `"zzzq such"`, `+such +united -x`,
	} {
		f.Add(q)
	}
	engines := make([]*Engine, 2)
	for i, radius := range []int{10, 2} {
		engines[i] = NewEngine()
		for _, text := range fuzzTexts {
			engines[i].Add("t", text)
		}
		engines[i].SnippetRadius = radius
	}
	f.Fuzz(func(t *testing.T, q string) {
		for _, e := range engines {
			checkAgainstOracle(t, e, fuzzTexts, []string{q, q + " +such", `"as ` + q + `"`})
		}
	})
}
