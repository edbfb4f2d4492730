package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// response is what the program under test answered to one request.
// body is only valid until the doer's next call.
type response struct {
	status  int
	version uint64 // X-Corpus-Version; 0 when the header is missing
	body    []byte
}

// doer sends one request to the program under test: over loopback HTTP
// in end-to-end runs, straight into the handler in the traced run.
type doer interface {
	do(method, path, body string) (response, error)
}

// httpDoer is one closed-loop client's keep-alive connection.
type httpDoer struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	// echoBytes, when positive, asks the traced run's echo server for an
	// answer of that many bytes.
	echoBytes int
}

func (h *httpDoer) do(method, path, body string) (response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if h.echoBytes > 0 {
		req.Header.Set("X-Echo-Bytes", strconv.Itoa(h.echoBytes))
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, version: parseVersion(resp.Header), body: h.buf.Bytes()}, nil
}

func parseVersion(h http.Header) uint64 {
	v, _ := strconv.ParseUint(h.Get("X-Corpus-Version"), 10, 64)
	return v
}

// sample is one op's outcome. start is relative to the run's epoch.
type sample struct {
	class opClass
	ok    bool
	start time.Duration
	dur   time.Duration
	bytes int
}

// client is one closed-loop client: it sends its generator's next op
// only after the previous answer has been read and checked.
type client struct {
	w   *workload
	gen *generator
	d   doer

	// own mirrors the generator's model of the ids this client created;
	// -1 marks an insert that failed, keeping later positions aligned.
	own []int
	// final is the last acknowledged content per id, nil for an
	// acknowledged delete; unknown holds ids whose last write failed.
	final   map[int]*recipeSpec
	unknown map[int]bool
	// seen maps a read-only workload's request to the hash of its first
	// answer: the corpus does not change, so any later answer must match.
	seen    map[string]uint64
	lastVer uint64

	// parseQuery makes check decode query answers for their scan counts;
	// only the traced run's reference phase pays for that.
	parseQuery    bool
	scanned, rows int64
	payload       int64 // request bytes of acknowledged writes

	failures []string
}

func newClient(w *workload, gen *generator, d doer) *client {
	return &client{w: w, gen: gen, d: d,
		final: map[int]*recipeSpec{}, unknown: map[int]bool{}, seen: map[string]uint64{}}
}

// sent is an op with the ids of its write items resolved.
type sent struct {
	path, body string
	ids        []int // per item; -1 = insert
}

// resolve turns the op's own-list positions into the ids the server
// assigned and renders the request.
func (c *client) resolve(o *op) sent {
	s := sent{path: o.path, body: o.body}
	switch o.kind {
	case kindDelete:
		s.ids = []int{c.own[o.own]}
		s.path = "/api/recipes/" + strconv.Itoa(s.ids[0])
	case kindUpsert, kindBatch:
		var b strings.Builder
		if o.kind == kindBatch {
			b.WriteString(`{"recipes":[`)
		}
		for i := range o.items {
			it := &o.items[i]
			id := -1
			if it.own >= 0 {
				id = c.own[it.own]
			}
			s.ids = append(s.ids, id)
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			if id >= 0 {
				fmt.Fprintf(&b, `"id":%d,`, id)
			}
			b.WriteString(it.spec.jsonFields())
			b.WriteByte('}')
		}
		if o.kind == kindBatch {
			b.WriteString(`]}`)
		}
		s.body = b.String()
	}
	return s
}

// step sends the next op and returns it with its checked outcome.
func (c *client) step(epoch time.Time) (op, sent, sample) {
	o := c.gen.next()
	s := c.resolve(&o)
	t0 := time.Now()
	resp, err := c.d.do(o.method, s.path, s.body)
	dur := time.Since(t0)
	msg := c.check(&o, s, resp, err)
	if msg != "" && len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("%s %s: %s", o.method, s.path, msg))
	}
	return o, s, sample{class: o.class, ok: msg == "", start: t0.Sub(epoch), dur: dur, bytes: len(resp.body)}
}

type upsertAck struct {
	ID      *int   `json:"id"`
	Version uint64 `json:"version"`
}

type batchAck struct {
	Results []struct {
		Status string `json:"status"`
		ID     *int   `json:"id"`
	} `json:"results"`
}

// check decides whether the answer is correct and folds acknowledged
// writes into the client's picture of the corpus. It returns "" or
// what was wrong. A write that fails leaves its ids unknown, so the
// durability check skips them; the op itself already counts as failed.
func (c *client) check(o *op, s sent, resp response, err error) string {
	msg := c.checkAnswer(o, s, resp, err)
	if msg == "" {
		return ""
	}
	switch o.kind {
	case kindDelete:
		c.removeOwn(o.own)
		c.unknown[s.ids[0]] = true
	case kindUpsert, kindBatch:
		for _, id := range s.ids {
			if id >= 0 {
				c.unknown[id] = true
			} else {
				c.own = append(c.own, -1)
			}
		}
	}
	return msg
}

func (c *client) removeOwn(k int) {
	last := len(c.own) - 1
	c.own[k] = c.own[last]
	c.own = c.own[:last]
}

func (c *client) checkAnswer(o *op, s sent, resp response, err error) string {
	if err != nil {
		return "transport: " + err.Error()
	}
	want := http.StatusOK
	if o.kind == kindUpsert && s.ids[0] < 0 {
		want = http.StatusCreated
	}
	if resp.status != want {
		return fmt.Sprintf("status %d, want %d: %.120s", resp.status, want, resp.body)
	}
	if resp.version == 0 {
		return "no X-Corpus-Version header"
	}
	if resp.version < c.lastVer {
		return fmt.Sprintf("corpus version went back from %d to %d", c.lastVer, resp.version)
	}
	c.lastVer = resp.version

	switch o.class {
	case classRecipeGet:
		var got struct {
			Recipe struct {
				ID *int `json:"id"`
			} `json:"recipe"`
		}
		if err := json.Unmarshal(resp.body, &got); err != nil || got.Recipe.ID == nil || *got.Recipe.ID != o.id {
			return fmt.Sprintf("asked for recipe %d, got %.80s", o.id, resp.body)
		}
	case classQuery:
		if c.parseQuery {
			var got struct {
				Rows    [][]string `json:"rows"`
				Scanned int64      `json:"scanned"`
			}
			if err := json.Unmarshal(resp.body, &got); err != nil {
				return "malformed body: " + err.Error()
			}
			c.scanned += got.Scanned
			c.rows += int64(len(got.Rows))
		} else if !json.Valid(resp.body) {
			return "malformed body"
		}
	case classUpsert:
		var ack upsertAck
		if err := json.Unmarshal(resp.body, &ack); err != nil || ack.ID == nil {
			return fmt.Sprintf("malformed ack %.80s", resp.body)
		}
		if s.ids[0] >= 0 && *ack.ID != s.ids[0] {
			return fmt.Sprintf("replaced id %d, ack names %d", s.ids[0], *ack.ID)
		}
		if ack.Version != resp.version {
			return fmt.Sprintf("ack version %d differs from header %d", ack.Version, resp.version)
		}
		if s.ids[0] < 0 {
			c.own = append(c.own, *ack.ID)
		}
		c.acked(*ack.ID, &o.items[0].spec, len(s.body))
	case classDelete:
		var ack upsertAck
		if err := json.Unmarshal(resp.body, &ack); err != nil || ack.ID == nil || *ack.ID != s.ids[0] {
			return fmt.Sprintf("malformed ack %.80s", resp.body)
		}
		c.removeOwn(o.own)
		c.acked(s.ids[0], nil, 0)
	case classBatch:
		var ack batchAck
		if err := json.Unmarshal(resp.body, &ack); err != nil || len(ack.Results) != len(s.ids) {
			return fmt.Sprintf("malformed ack %.80s", resp.body)
		}
		for i, r := range ack.Results {
			wantStatus := "replaced"
			if s.ids[i] < 0 {
				wantStatus = "created"
			}
			if r.Status != wantStatus || r.ID == nil || (s.ids[i] >= 0 && *r.ID != s.ids[i]) {
				return fmt.Sprintf("item %d: status %q, want %q", i, r.Status, wantStatus)
			}
		}
		for i, r := range ack.Results {
			if s.ids[i] < 0 {
				c.own = append(c.own, *r.ID)
			}
			c.acked(*r.ID, &o.items[i].spec, len(s.body)/len(s.ids))
		}
	default:
		if !json.Valid(resp.body) {
			return "malformed body"
		}
	}

	if c.w.readOnly && o.kind != kindUniqueQuery { // a unique statement is never asked twice
		h := fnv.New64a()
		h.Write(resp.body)
		sum := h.Sum64()
		key := s.path + s.body
		if first, ok := c.seen[key]; !ok {
			c.seen[key] = sum
		} else if first != sum {
			return "answer differs from the first answer to the same request"
		}
	}
	return ""
}

func (c *client) acked(id int, spec *recipeSpec, bytes int) {
	c.final[id] = spec
	delete(c.unknown, id)
	c.payload += int64(bytes)
}
