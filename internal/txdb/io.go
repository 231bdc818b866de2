package txdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// The basket text format is one transaction per line, item names separated
// by commas (names may contain spaces, e.g. "canned beer"). Blank lines are
// empty transactions unless they are comments ('#' prefix); a lone "-"
// denotes an explicitly empty transaction for round-trip fidelity.

// basketParser is the one reader of the basket format, shared by
// ReadBaskets and FileSource.Scan. It works on the scanner's byte buffer:
// lines and names are trimmed and split in place and names resolve through
// the dictionary without a string allocation, so a parsed line costs no
// allocation unless it introduces a new name.
type basketParser struct {
	sc     *bufio.Scanner
	dict   *dict.Dictionary
	assign bool // give unseen names fresh IDs; otherwise they are an error
	line   int  // 1-based number of the last line read, for errors
	ids    []itemset.ID
}

func newBasketParser(r io.Reader, d *dict.Dictionary, assign bool) *basketParser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return &basketParser{sc: sc, dict: d, assign: assign, ids: make([]itemset.ID, 0, 32)}
}

// next parses the next transaction and returns its canonical item IDs,
// valid until the following call; ok is false at the end of the input.
// Format errors name the offending line.
func (p *basketParser) next() (tx itemset.Set, ok bool, err error) {
	for p.sc.Scan() {
		p.line++
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) > 0 && line[0] == '#' {
			continue
		}
		if len(line) == 0 || (len(line) == 1 && line[0] == '-') {
			return nil, true, nil
		}
		p.ids = p.ids[:0]
		for {
			field := line
			comma := bytes.IndexByte(line, ',')
			if comma >= 0 {
				field = line[:comma]
			}
			name := bytes.TrimSpace(field)
			if len(name) == 0 {
				return nil, false, fmt.Errorf("line %d: empty item name", p.line)
			}
			id, known := p.dict.LookupBytes(name)
			if !known {
				if !p.assign {
					return nil, false, fmt.Errorf("line %d: item %q appeared after the first pass", p.line, name)
				}
				id = p.dict.ID(string(name))
			}
			p.ids = append(p.ids, id)
			if comma < 0 {
				break
			}
			line = line[comma+1:]
		}
		return itemset.Canon(p.ids), true, nil
	}
	if err := p.sc.Err(); err != nil {
		return nil, false, fmt.Errorf("read: %w", err)
	}
	return nil, false, nil
}

// ReadBaskets parses the basket format from r into an in-memory DB, writing
// IDs through d (nil for a fresh dictionary). Transactions are stored in a
// chunked arena, so loading costs one allocation per arenaChunk items
// rather than one per line.
func ReadBaskets(r io.Reader, d *dict.Dictionary) (*DB, error) {
	db := New(d)
	p := newBasketParser(r, db.dict, true)
	var arena idArena
	for {
		tx, ok, err := p.next()
		if err != nil {
			return nil, fmt.Errorf("txdb: %w", err)
		}
		if !ok {
			return db, nil
		}
		if len(db.tx) == cap(db.tx) {
			// Double rather than append's gentler growth: the header slice
			// is the one per-transaction structure, and each regrowth
			// copies all of it.
			db.tx = slices.Grow(db.tx, len(db.tx)+1)
		}
		db.tx = append(db.tx, arena.add(tx))
	}
}

// WriteBaskets serializes the database in the basket format. Item names
// containing the format's structural characters (commas, newlines, carriage
// returns, or a leading '#'/'-') cannot round-trip and are rejected.
func (db *DB) WriteBaskets(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, tx := range db.tx {
		if len(tx) == 0 {
			if _, err := bw.WriteString("-\n"); err != nil {
				return err
			}
			continue
		}
		for i, id := range tx {
			name := db.dict.Name(id)
			if err := validateBasketName(name); err != nil {
				return err
			}
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(name); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// validateBasketName rejects item names that the basket text format cannot
// represent unambiguously.
func validateBasketName(name string) error {
	if name == "" || name == "-" {
		return fmt.Errorf("txdb: item name %q cannot round-trip the basket format", name)
	}
	if strings.ContainsAny(name, ",\n\r") {
		return fmt.Errorf("txdb: item name %q contains a basket separator", name)
	}
	if strings.HasPrefix(strings.TrimSpace(name), "#") {
		return fmt.Errorf("txdb: item name %q would parse as a comment", name)
	}
	if name != strings.TrimSpace(name) {
		return fmt.Errorf("txdb: item name %q has surrounding whitespace", name)
	}
	return nil
}

// FileSource is a Source that re-reads a basket file on every Scan, keeping
// memory usage independent of database size (the disk-resident mode of the
// paper's experiments). The dictionary is populated on the first pass and
// then frozen: later passes must not meet unknown items.
//
// Scans read through a resumable retry layer (see retry.go): a transient
// read fault mid-pass reopens the file at the first unconsumed byte instead
// of failing the mine, delivering every transaction exactly once.
type FileSource struct {
	path  string
	dict  *dict.Dictionary
	n     int
	init  bool
	retry RetryPolicy
	wrap  ReaderWrapper
}

// OpenFile creates a FileSource over path with dictionary d (nil for fresh).
// The file is validated (and the dictionary and transaction count populated)
// by one immediate pass. The source starts with DefaultRetry.
func OpenFile(path string, d *dict.Dictionary) (*FileSource, error) {
	if d == nil {
		d = dict.New()
	}
	fs := &FileSource{path: path, dict: d, retry: DefaultRetry}
	if err := fs.Scan(func(itemset.Set) error { return nil }); err != nil {
		return nil, err
	}
	fs.init = true
	return fs, nil
}

// SetRetry replaces the source's transient-read recovery policy (a zero
// policy disables recovery). Not safe to call concurrently with Scan.
func (fs *FileSource) SetRetry(p RetryPolicy) { fs.retry = p }

// SetReaderWrapper installs a decorator applied to the raw file reader of
// every (re)open — the fault-injection hook. Pass nil to remove. Not safe
// to call concurrently with Scan.
func (fs *FileSource) SetReaderWrapper(w ReaderWrapper) { fs.wrap = w }

// Dict returns the source's dictionary.
func (fs *FileSource) Dict() *dict.Dictionary { return fs.dict }

// Len returns the number of transactions counted on the first pass.
func (fs *FileSource) Len() int { return fs.n }

// Scan implements Source by streaming the file through the retry layer.
func (fs *FileSource) Scan(fn func(tx itemset.Set) error) error {
	f, err := openRetryReader(fs.path, fs.retry, fs.wrap)
	if err != nil {
		return fmt.Errorf("txdb: %w", err)
	}
	defer f.Close()
	p := newBasketParser(f, fs.dict, !fs.init)
	count := 0
	for {
		tx, ok, err := p.next()
		if err != nil {
			return fmt.Errorf("txdb: %s: %w", fs.path, err)
		}
		if !ok {
			break
		}
		count++
		if err := fn(tx); err != nil {
			return err
		}
	}
	if !fs.init {
		fs.n = count
	}
	return nil
}
