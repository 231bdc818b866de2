package txdb

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// FuzzReadBaskets: arbitrary input must never panic; the byte-level parser
// must agree with the reference string parser on accept/reject, on every
// transaction's IDs, and on the names and order of ID assignment; a
// FileSource over the same bytes must yield the same transactions; and
// every successfully parsed database must round-trip (write → re-read →
// identical widths and names) whenever its names are writable.
func FuzzReadBaskets(f *testing.F) {
	f.Add("beer, diapers\nmilk\n-\n")
	f.Add("# comment\n\n")
	f.Add("a,b,c\na\n")
	f.Add("x")
	f.Add(" a ,b")
	f.Add("\u00a0a,\u2003b\u0085\n\u3000\n")
	f.Add("a,\u00a0,b\n")
	f.Add("  # not an item\n#\n-\n - \n\n\r\nb,a,b\n")
	f.Add("-,a\n#a,b\na#,-\n")
	f.Add("a,\n")
	f.Add("\xff,\xfe a\n")
	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadBaskets(strings.NewReader(input), nil)
		ref, refErr := refReadBaskets(strings.NewReader(input), nil)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("accept/reject differs: err %v, reference %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error %q, reference %q", err, refErr)
			}
			return // malformed input rejected is fine
		}
		if !slices.Equal(db.Dict().Names(), ref.Dict().Names()) {
			t.Fatalf("dictionary %q, reference %q", db.Dict().Names(), ref.Dict().Names())
		}
		want := replay(t, ref)
		if got := replay(t, db); !sameSets(got, want) {
			t.Fatalf("transactions %v, reference %v", got, want)
		}
		path := filepath.Join(t.TempDir(), "baskets.txt")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFile(path, nil)
		if err != nil {
			t.Fatalf("FileSource rejected input ReadBaskets accepted: %v", err)
		}
		if got := replay(t, fs); !sameSets(got, want) || !slices.Equal(fs.Dict().Names(), ref.Dict().Names()) {
			t.Fatalf("FileSource yields %v, reference %v", got, want)
		}

		var sb strings.Builder
		if err := db.WriteBaskets(&sb); err != nil {
			return // names unrepresentable in the format
		}
		back, err := ReadBaskets(strings.NewReader(sb.String()), nil)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, sb.String())
		}
		if back.Len() != db.Len() {
			t.Fatalf("round trip changed transaction count %d -> %d", db.Len(), back.Len())
		}
		for i := 0; i < db.Len(); i++ {
			a, b := db.Tx(i), back.Tx(i)
			if a.K() != b.K() {
				t.Fatalf("tx %d width %d -> %d", i, a.K(), b.K())
			}
			for j := range a {
				if db.Dict().Name(a[j]) != back.Dict().Name(b[j]) {
					t.Fatalf("tx %d item %d name changed", i, j)
				}
			}
		}
	})
}

// sameSets reports whether two transaction sequences are equal item by item.
func sameSets(a, b []itemset.Set) bool {
	return slices.EqualFunc(a, b, itemset.Set.Equal)
}

// TestFileSourceErrorsNameLine: format errors met while streaming a basket
// file report the path and the line, as ReadBaskets reports the line.
func TestFileSourceErrorsNameLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := os.WriteFile(path, []byte("a,b\n# c\nb,,a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path, nil)
	if err == nil || !strings.Contains(err.Error(), path+": line 3: empty item name") {
		t.Fatalf("err = %v, want the path and line 3", err)
	}
	if err := os.WriteFile(path, []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("a\n\nb,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = fs.Scan(func(itemset.Set) error { return nil })
	if err == nil || !strings.Contains(err.Error(), path+`: line 3: item "c" appeared after the first pass`) {
		t.Fatalf("err = %v, want the path, line 3 and the unknown item", err)
	}
}

func TestWriteBasketsRejectsUnrepresentableNames(t *testing.T) {
	cases := [][]string{
		{"has,comma"},
		{"has\nnewline"},
		{"#comment-like"},
		{" padded "},
		{"-"},
	}
	for _, names := range cases {
		db := New(nil)
		db.AddNames(names...)
		var sb strings.Builder
		if err := db.WriteBaskets(&sb); err == nil {
			t.Errorf("name %q serialized without error", names[0])
		}
	}
}
