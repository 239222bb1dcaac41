package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/platform"
	"icrowd/internal/sim"
	"icrowd/internal/store"
)

// The restart workload's fixture is a -data-dir written by an in-process
// server driven one request at a time, so the same seed yields the same
// bytes. Its state just before the "kill" is kept to check the restarted
// server against.

// projectState is a project as the restart check compares it.
type projectState struct {
	Status  platform.StatusResponse `json:"status"`
	Results map[int]string          `json:"results"`
	LastSeq int64                   `json:"lastSeq"`
	Submits int                     `json:"submits"`
}

// fixture is a built restart fixture.
type fixture struct {
	Dir      string
	Projects []projectRecord
	State    map[string]projectState
}

// buildFixture drives sessions arrivals of the crowd over
// nProjects projects into dir.
func buildFixture(dir string, seed, datasetSeed int64, workers, nProjects, sessions int) (*fixture, error) {
	ds, _, err := experiments.LoadDataset(experiments.DatasetItemCompare, datasetSeed, 0)
	if err != nil {
		return nil, err
	}
	basis, err := core.BuildBasis(ds, func() core.BasisConfig {
		bc := core.DefaultBasisConfig()
		bc.Seed = datasetSeed
		return bc
	}())
	if err != nil {
		return nil, err
	}
	pstore, err := store.OpenProjects(dir)
	if err != nil {
		return nil, err
	}
	factory := func(id string) (core.Strategy, error) {
		return core.New(ds, basis, strategyConfig(projectSeed(datasetSeed, id)))
	}
	def, err := factory(store.DefaultProject)
	if err != nil {
		return nil, err
	}
	srv := platform.NewServer(def, ds)
	srv.SetLogger(nil)
	defer srv.Close()
	if _, err := srv.EnableProjects(pstore, factory); err != nil {
		return nil, err
	}
	h := srv.Handler()
	call := func(method, path, body string, out any) error {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		if rec.Code/100 != 2 {
			return fmt.Errorf("fixture %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		if out != nil {
			return json.Unmarshal(rec.Body.Bytes(), out)
		}
		return nil
	}

	fx := &fixture{Dir: dir, State: map[string]projectState{}}
	for i := 0; i < nProjects; i++ {
		p := projectRecord{ID: fmt.Sprintf("fx%d", i), Slot: i}
		if err := call(http.MethodPut, "/v1/projects/"+p.ID, "", nil); err != nil {
			return nil, err
		}
		var rr platform.ResultsResponse
		if err := call(http.MethodGet, "/v1/projects/"+p.ID+"/results", "", &rr); err != nil {
			return nil, err
		}
		for tid, a := range rr.Results {
			if a != "NONE" {
				p.Qual = append(p.Qual, tid)
			}
		}
		sort.Ints(p.Qual)
		fx.Projects = append(fx.Projects, p)
	}

	opts := sim.DefaultPoolOptions()
	opts.DomainCaps = map[string]float64{"Auto": 0.76}
	pool := sim.GeneratePool(ds, workers, opts, crowdSeed)
	cum := make([]float64, len(pool))
	total := 0.0
	for i := range pool {
		total += pool[i].RequestRate
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed*31 + 17))
	submits := map[string]int{}
	for s := 0; s < sessions; s++ {
		w := sort.SearchFloat64s(cum, rng.Float64()*total)
		if w >= len(pool) {
			w = len(pool) - 1
		}
		p := fx.Projects[rng.Intn(nProjects)].ID
		worker := pool[w].ID
		var ar platform.AssignResponse
		if err := call(http.MethodGet, "/v1/projects/"+p+"/assign?workerId="+worker, "", &ar); err != nil {
			return nil, err
		}
		if !ar.Assigned {
			continue
		}
		ans := sim.Answer(&pool[w], &ds.Tasks[ar.TaskID], answerRand(w, ar.TaskID))
		body, _ := json.Marshal(platform.SubmitRequest{WorkerID: worker, TaskID: ar.TaskID, Answer: ans.String()})
		if err := call(http.MethodPost, "/v1/projects/"+p+"/submit", string(body), nil); err != nil {
			return nil, err
		}
		submits[p]++
	}
	for _, p := range fx.Projects {
		var st projectState
		if err := call(http.MethodGet, "/v1/projects/"+p.ID+"/status", "", &st.Status); err != nil {
			return nil, err
		}
		var rr platform.ResultsResponse
		if err := call(http.MethodGet, "/v1/projects/"+p.ID+"/results", "", &rr); err != nil {
			return nil, err
		}
		st.Results = rr.Results
		var info platform.ProjectInfo
		if err := call(http.MethodGet, "/v1/projects/"+p.ID, "", &info); err != nil {
			return nil, err
		}
		st.LastSeq = info.LastSeq
		st.Submits = submits[p.ID]
		fx.State[p.ID] = st
	}
	return fx, nil
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
