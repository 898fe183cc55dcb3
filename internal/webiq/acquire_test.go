package webiq

import (
	"reflect"
	"testing"

	"webiq/internal/schema"
)

// Unit tests for the Section-5 policy helpers that the integration tests
// exercise only indirectly.

func mkAttr(ifcID, id, label string, inst ...string) *schema.Attribute {
	return &schema.Attribute{
		ID: ifcID + "/" + id, InterfaceID: ifcID, Label: label, Instances: inst,
	}
}

func twoInterfaceDataset() *schema.Dataset {
	return &schema.Dataset{
		Domain: "airfare",
		Interfaces: []*schema.Interface{
			{ID: "x", Attributes: []*schema.Attribute{
				mkAttr("x", "from", "From"),
				mkAttr("x", "class", "Class", "Economy", "Business"),
			}},
			{ID: "y", Attributes: []*schema.Attribute{
				mkAttr("y", "from", "From city", "Boston", "Chicago", "Denver"),
				mkAttr("y", "class", "Cabin", "Economy", "First Class"),
			}},
			{ID: "z", Attributes: []*schema.Attribute{
				mkAttr("z", "date", "Departure date", "January", "March"),
			}},
		},
	}
}

func testAcquirer(cfg Config) *Acquirer {
	return NewAcquirer(nil, nil, nil, Components{}, cfg)
}

func TestBorrowDonorsFreeTextLabelFilter(t *testing.T) {
	ds := twoInterfaceDataset()
	a := testAcquirer(DefaultConfig())
	attr := ds.Interfaces[0].Attributes[0] // "From", no instances
	donors := a.borrowDonorsFreeText(newDonorIndex(), ds, ds.Interfaces[0], attr)
	if len(donors) != 1 {
		t.Fatalf("donors = %v", donors)
	}
	if donors[0].Label != "From city" {
		t.Errorf("donor = %q, want From city", donors[0].Label)
	}
}

func TestBorrowDonorsExcludeSameInterface(t *testing.T) {
	ds := twoInterfaceDataset()
	a := testAcquirer(DefaultConfig())
	attr := ds.Interfaces[1].Attributes[0] // y/from, has instances but eligible as target
	donors := a.borrowDonorsFreeText(newDonorIndex(), ds, ds.Interfaces[1], attr)
	for _, d := range donors {
		if d.InterfaceID == "y" {
			t.Errorf("donor %s from the target's own interface", d.ID)
		}
	}
}

func TestBorrowDonorsDomainConflict(t *testing.T) {
	// A donor whose values overlap a predefined sibling of the target is
	// excluded (Section 5, case 1).
	ds := twoInterfaceDataset()
	// Give x a predefined sibling with city values.
	ds.Interfaces[0].Attributes = append(ds.Interfaces[0].Attributes,
		mkAttr("x", "near", "Nearby city", "Boston", "Chicago", "Denver"))
	a := testAcquirer(DefaultConfig())
	attr := ds.Interfaces[0].Attributes[0] // "From"
	donors := a.borrowDonorsFreeText(newDonorIndex(), ds, ds.Interfaces[0], attr)
	if len(donors) != 0 {
		t.Errorf("donor with sibling-overlapping domain not excluded: %v", donors)
	}
}

func TestBorrowValuesPredefRequiresSharedValues(t *testing.T) {
	ds := twoInterfaceDataset()
	a := testAcquirer(DefaultConfig())
	attr := ds.Interfaces[0].Attributes[1] // Class {Economy, Business}
	got := a.borrowValuesPredef(newDonorIndex(), ds, ds.Interfaces[0], attr)
	// "Cabin" shares Economy (1 value) — below BorrowValueMatches=2 — so
	// the strict pass fails; the fallback borrows from everything.
	if len(got) == 0 {
		t.Fatal("fallback did not borrow anything")
	}
	for _, v := range got {
		if v == "Economy" || v == "Business" {
			t.Errorf("borrowed value %q already predefined on target", v)
		}
	}
}

func TestBorrowValuesPredefStrictPass(t *testing.T) {
	ds := twoInterfaceDataset()
	// Make Cabin share two values with Class.
	ds.Interfaces[1].Attributes[1].Instances = []string{"Economy", "Business", "First Class"}
	a := testAcquirer(DefaultConfig())
	attr := ds.Interfaces[0].Attributes[1]
	got := a.borrowValuesPredef(newDonorIndex(), ds, ds.Interfaces[0], attr)
	want := []string{"First Class"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("borrowed = %v, want %v (strict donors only)", got, want)
	}
}

func TestDomainsVerySimilar(t *testing.T) {
	cases := []struct {
		a, b []string
		min  int
		want bool
		why  string
	}{
		{[]string{"a", "b"}, []string{"A", "B", "c"}, 2, true, "two exact folds should qualify"},
		{[]string{"a"}, []string{"b"}, 2, false, "disjoint singletons should not qualify"},
		// Near-identical pairs count (edit similarity >= 0.9).
		{[]string{"Chevrolet", "Mitsubishi"}, []string{"Chevrolets", "Mitsubishis"}, 2, true, "edit-similar pairs should qualify"},
		// Short words don't reach the 0.9 bar with one edit.
		{[]string{"Kia"}, []string{"Ki"}, 1, false, "short near-pairs should not qualify"},
	}
	for _, c := range cases {
		if got := indexedVerySimilar(c.a, c.b, c.min); got != c.want {
			t.Errorf("indexed %v vs %v (min %d) = %v: %s", c.a, c.b, c.min, got, c.why)
		}
		if got := referenceDomainsVerySimilar(c.a, c.b, c.min); got != c.want {
			t.Errorf("reference %v vs %v (min %d) = %v: %s", c.a, c.b, c.min, got, c.why)
		}
	}
}

func TestAddAcquiredDedupAndCap(t *testing.T) {
	attr := &schema.Attribute{Instances: []string{"X"}}
	n := addAcquired(attr, []string{"x", "Y", "y", "Z"}, 2)
	if n != 2 {
		t.Errorf("added = %d, want 2 (cap)", n)
	}
	if !reflect.DeepEqual(attr.Acquired, []string{"Y", "Z"}) {
		t.Errorf("acquired = %v", attr.Acquired)
	}
	// A second call respects existing acquisitions.
	n = addAcquired(attr, []string{"y", "W"}, 3)
	if n != 1 || attr.Acquired[2] != "W" {
		t.Errorf("second add: n=%d acquired=%v", n, attr.Acquired)
	}
}

func TestNonInstancesCap(t *testing.T) {
	ds := twoInterfaceDataset()
	ifc := ds.Interfaces[1]
	got := nonInstances(ifc, ifc.Attributes[0], 2)
	if len(got) != 2 {
		t.Errorf("nonInstances = %v, want 2 values", got)
	}
	for _, v := range got {
		for _, own := range ifc.Attributes[0].Instances {
			if v == own {
				t.Errorf("non-instance %q is the attribute's own value", v)
			}
		}
	}
}

func TestReportSuccessRateCounting(t *testing.T) {
	r := &Report{Outcomes: []Outcome{
		{HadInstances: true, Success: false},
		{HadInstances: false, Success: true},
		{HadInstances: false, Success: false},
	}}
	if got := r.SuccessRate(); got != 50 {
		t.Errorf("success rate = %v, want 50", got)
	}
}

func TestHasMethodAndCap(t *testing.T) {
	if !hasMethod([]Method{MethodSurface, MethodAttrDeep}, MethodAttrDeep) {
		t.Error("hasMethod missed present method")
	}
	if hasMethod(nil, MethodSurface) {
		t.Error("hasMethod found method in empty slice")
	}
	if got := capSlice([]string{"a", "b", "c"}, 2); len(got) != 2 {
		t.Errorf("capSlice = %v", got)
	}
	if got := capSlice([]string{"a"}, 5); len(got) != 1 {
		t.Errorf("capSlice = %v", got)
	}
}

func TestFoldValue(t *testing.T) {
	if foldValue("Air Canada") != "air canada" {
		t.Errorf("foldValue = %q", foldValue("Air Canada"))
	}
	if foldValue("") != "" {
		t.Error("empty fold")
	}
}
