package main

import (
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// kidsData is a scaled Figure 1 source (Children, Parents, PhoneDir,
// SBPS, XmasBar) as CSV rows. Every column draws from its own value
// domain, so IND mining at overlap 1 finds exactly the paper's three
// foreign keys (Children.mid and Children.fid into Parents.ID,
// PhoneDir.ID into Parents.ID) plus Example 3.10's inclusion
// Children.mid ⊆ PhoneDir.ID (every mother has a phone):
//
//   - child IDs are strings c%06d; parent IDs are integers from
//     100000, mothers even and fathers odd, so no parent column is
//     included in a child column or in the other parent role;
//   - some fathers have no phone, some fathers and a childless parent
//     have one, so neither fid ⊆ PhoneDir.ID nor PhoneDir.ID ⊆ mid;
//   - SBPS and XmasBar mix child IDs with IDs of their own, and child 0
//     rides no bus and gives no gift, so no bus or gift column is
//     included in another or in Children.ID, nor Children.ID in them;
//   - ages, salaries, names and the other payload columns use value
//     sets no other column contains.
//
// The chase value (child 2) occurs in SBPS.ID, XmasBar.giverID and
// XmasBar.recipientID, as 002 does in the paper.
type kidsData struct {
	rels map[string][][]string // relation → header row, then data rows
	// mothers and fathers let the edit workload insert rows that keep
	// every mined inclusion intact.
	mothers, fathers []string
}

// kidsRelations lists the generated relations in CSV file order.
var kidsRelations = []string{"Children", "Parents", "PhoneDir", "SBPS", "XmasBar"}

// chaseValue is the child ID the scripts chase; genKids guarantees it
// occurs in SBPS and in both XmasBar ID columns.
const chaseValue = "c000002"

var (
	firstNames   = []string{"Ann", "Maya", "Bo", "Zoe", "Liam", "Ida", "Omar", "Tess", "Yuki", "Raj"}
	affiliations = []string{"IBM", "Acta", "UofT", "AT&T", "Sun", "HP", "Bell", "Nortel"}
	streets      = []string{"Maple St", "Oak Ave", "Pine Rd", "Elm St", "King St", "Bay St"}
	stops        = []string{"North Gate", "South Gate", "Library", "Park", "Arena"}
	gifts        = []string{"teddy bear", "toy train", "book", "kite", "puzzle", "crayons"}
	phoneTypes   = []string{"home", "work", "cell"}
)

func childID(i int) string { return fmt.Sprintf("c%06d", i) }

// genKids builds a dataset with n ≥ 8 children, deterministically from
// seed.
func genKids(n int, seed int64) *kidsData {
	if n < 8 {
		n = 8
	}
	rng := rand.New(rand.NewSource(seed))
	families := n / 2
	mother := func(f int) int { return 100000 + 2*f }
	father := func(f int) int { return 100001 + 2*f }
	d := &kidsData{rels: map[string][][]string{
		"Children": {{"ID", "name", "age", "mid", "fid", "docid"}},
		"Parents":  {{"ID", "affiliation", "address", "salary"}},
		"PhoneDir": {{"ID", "type", "number"}},
		"SBPS":     {{"ID", "time", "location"}},
		"XmasBar":  {{"giverID", "recipientID", "gift"}},
	}}
	add := func(rel string, row ...string) { d.rels[rel] = append(d.rels[rel], row) }

	for i := 0; i < n; i++ {
		// Children 0 and 1 pin families 0 and 1, whose fathers anchor
		// the phone rules below.
		f := i
		if i > 1 {
			f = rng.Intn(families)
		}
		fid := fmt.Sprint(father(f))
		if i > 1 && rng.Intn(10) == 0 {
			fid = ""
		}
		docid := ""
		if rng.Intn(4) != 0 {
			docid = fmt.Sprintf("d%d", rng.Intn(50))
		}
		add("Children", childID(i), fmt.Sprintf("%s-%d", firstNames[rng.Intn(len(firstNames))], i),
			fmt.Sprint(3+rng.Intn(10)), fmt.Sprint(mother(f)), fid, docid)
	}

	phones := 0
	phone := func(id int) {
		add("PhoneDir", fmt.Sprint(id), phoneTypes[rng.Intn(len(phoneTypes))], fmt.Sprintf("555-%07d", phones))
		phones++
	}
	parent := func(id int) {
		add("Parents", fmt.Sprint(id), affiliations[rng.Intn(len(affiliations))],
			fmt.Sprintf("%d %s", 1+rng.Intn(99), streets[rng.Intn(len(streets))]),
			fmt.Sprint(40000+rng.Intn(60000)))
	}
	for f := 0; f < families; f++ {
		parent(mother(f))
		parent(father(f))
		phone(mother(f))
		d.mothers = append(d.mothers, fmt.Sprint(mother(f)))
		d.fathers = append(d.fathers, fmt.Sprint(father(f)))
		// Family 0's father never has a phone, family 1's always does.
		if f == 1 || f > 1 && rng.Intn(2) == 0 {
			phone(father(f))
		}
	}
	// Childless parents (the paper's 205), every other one with a phone.
	for j := 0; j < families/10+1; j++ {
		id := 100000 + 2*families + j
		parent(id)
		if j%2 == 0 {
			phone(id)
		}
	}

	// ID ranges of their own for riders and gift exchangers who are not
	// children.
	extra := n / 20
	if extra < 1 {
		extra = 1
	}
	busOnly, giverOnly, recipientOnly := n, n+extra, n+2*extra
	bus := func(id string) {
		add("SBPS", id, fmt.Sprintf("7:%02d", rng.Intn(60)), stops[rng.Intn(len(stops))])
	}
	for i := 1; i < n; i++ {
		if i == 2 || rng.Intn(10) < 6 {
			bus(childID(i))
		}
	}
	for j := 0; j < extra; j++ {
		bus(childID(busOnly + j))
	}
	gift := func(g, r string) { add("XmasBar", g, r, gifts[rng.Intn(len(gifts))]) }
	kid := func() string { return childID(1 + rng.Intn(n-1)) }
	gift(chaseValue, kid())
	gift(kid(), chaseValue)
	for j := 0; j < n/2; j++ {
		gift(kid(), kid())
	}
	for j := 0; j < extra; j++ {
		gift(childID(giverOnly+j), kid())
		gift(kid(), childID(recipientOnly+j))
	}
	return d
}

// write stores one CSV file per relation in dir (created if needed).
func (d *kidsData) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range kidsRelations {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		werr := w.WriteAll(d.rels[name])
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write %s: %w", name, werr)
		}
	}
	return nil
}
