// Schemamatch demonstrates the transfer the paper's Section 8 proposes:
// applying WebIQ's instance acquisition to *general schema matching*.
// Two relational database schemas — a library catalog and a bookstore
// inventory — are matched by treating each column as an interface
// attribute: columns with sample values contribute them as instances,
// and columns without samples get instances acquired from the Web.
//
// Run with: go run ./examples/schemamatch
package main

import (
	"fmt"
	"strings"

	"webiq"
)

// column describes one relational column: its name and (possibly empty)
// sample values pulled from the table.
type column struct {
	name    string
	samples []string
}

func main() {
	// Schema 1: a library catalog table. Some columns have sample rows,
	// some are empty (a freshly created table, or access restrictions).
	catalog := []column{
		{"title", nil},
		{"writer", nil}, // named differently from "author"
		{"publisher", []string{"Penguin", "Vintage", "Knopf"}},
		{"isbn", nil},
		{"subject", []string{"History", "Biography", "Travel"}},
	}
	// Schema 2: a bookstore inventory table.
	inventory := []column{
		{"book_title", nil},
		{"author", []string{"Stephen King", "John Grisham"}},
		{"publishing_house", []string{"Penguin", "Bantam", "Doubleday"}},
		{"isbn_number", nil},
		{"genre", []string{"Fiction", "Mystery", "Romance"}},
	}

	// Concept assignments exist only so the demo can score itself.
	concepts := map[string]string{
		"title": "title", "book_title": "title",
		"writer": "author", "author": "author",
		"publisher": "publisher", "publishing_house": "publisher",
		"isbn": "isbn", "isbn_number": "isbn",
		"subject": "category", "genre": "category",
	}

	toInterface := func(id string, cols []column) *webiq.Interface {
		ifc := &webiq.Interface{ID: id, Domain: "book", Source: id}
		for i, c := range cols {
			label := strings.ReplaceAll(c.name, "_", " ")
			ifc.Attributes = append(ifc.Attributes, &webiq.Attribute{
				ID:          fmt.Sprintf("%s/c%d", id, i),
				InterfaceID: id,
				Label:       label,
				Instances:   c.samples,
				ConceptID:   concepts[c.name],
			})
		}
		return ifc
	}

	ds := &webiq.Dataset{
		Domain: "book", EntityName: "book", DomainKeyword: "book",
		Interfaces: []*webiq.Interface{
			toInterface("catalog", catalog),
			toInterface("inventory", inventory),
		},
	}

	fmt.Println("Building the Surface Web...")
	sys := webiq.NewSystem(webiq.Options{})

	_, before := sys.Match(ds, 0)
	fmt.Printf("Column matching without acquisition: F1 = %.2f\n", before.F1)

	rep := sys.Acquire(ds)
	for _, o := range rep.Outcomes {
		if o.Acquired > 0 {
			fmt.Printf("  acquired %2d values for column %q via %v\n", o.Acquired, o.Label, o.Methods)
		}
	}

	res, after := sys.Match(ds, 0)
	fmt.Printf("Column matching with acquisition:    F1 = %.2f\n\n", after.F1)
	fmt.Println("Column correspondences:")
	for _, c := range res.Clusters {
		if len(c) == 2 {
			fmt.Printf("  %s  <->  %s\n", c[0], c[1])
		}
	}
}
