package runctl

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"mlec/internal/faultinject"
	"mlec/internal/obs"
)

// CheckpointVersion is the on-disk format version. Readers reject files
// written by a different version rather than guessing.
const CheckpointVersion = 1

// PrevCheckpointPath returns the previous-good generation path for a
// checkpoint at path: SaveCheckpoint rotates the newest file there
// before committing a new one, and LoadCheckpoint falls back to it when
// the newest file is corrupt.
func PrevCheckpointPath(path string) string { return path + ".1" }

// CorruptCheckpointError reports a checkpoint file that exists but
// cannot be decoded — truncated or torn gzip stream, flipped bytes
// (the gzip CRC catches them), zero-length file, or invalid JSON
// inside. Generation 0 is the newest file, 1 the rotated previous-good
// one. Corruption is recoverable (LoadCheckpoint falls back a
// generation); version/kind/fingerprint mismatches are not of this
// type, because a well-formed file for the wrong campaign must stay a
// hard error.
type CorruptCheckpointError struct {
	Path       string // file that failed to decode
	Generation int    // 0 = newest, 1 = previous-good
	Cause      error  // underlying gzip/JSON/IO error
}

// Error implements error.
func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("runctl: checkpoint %s (generation %d) is corrupt: %v", e.Path, e.Generation, e.Cause)
}

// Unwrap exposes the underlying decode error to errors.Is/As.
func (e *CorruptCheckpointError) Unwrap() error { return e.Cause }

// CheckpointSaveError reports a checkpoint save that failed to write,
// rotate or commit. The save runs once: a failure ends the campaign,
// and because a save never writes over a committed generation before
// its own temp file is complete, the last committed checkpoint is
// intact and re-running the same command resumes from it.
type CheckpointSaveError struct {
	Path  string // checkpoint being saved
	Cause error  // underlying IO error (an *faultinject.InjectedError under chaos)
}

// Error implements error.
func (e *CheckpointSaveError) Error() string {
	return fmt.Sprintf("runctl: saving checkpoint %s: %v", e.Path, e.Cause)
}

// Unwrap exposes the underlying IO error to errors.Is/As.
func (e *CheckpointSaveError) Unwrap() error { return e.Cause }

// checkpointEnvelope is the versioned container around an estimator's
// payload. Kind names the producing estimator ("poolsim.split",
// "burst.pdl", "burst.grid"); Fingerprint hashes the configuration and
// seed so a checkpoint is never resumed into a different campaign.
// Files written by older binaries may also carry a "counters" object (a
// snapshot of the observability registry); decoding ignores it, so they
// load unchanged at version 1.
type checkpointEnvelope struct {
	Version     int             `json:"version"`
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint"`
	Payload     json.RawMessage `json:"payload"`
}

// SaveCheckpoint durably writes payload to path as a gzip-compressed
// versioned envelope. The write is atomic and generation-chained: the
// bytes land in a temp file in the same directory, are fsynced, the
// current checkpoint (if any) rotates to PrevCheckpointPath(path), and
// the temp file renames into place — so an interrupted save can never
// corrupt an existing checkpoint, and even a save that tears the
// newest file after commit leaves a previous-good generation behind.
// The write is tried once; an IO failure comes back as a
// *CheckpointSaveError.
func SaveCheckpoint(path, kind, fingerprint string, payload any) error {
	span := obs.StartSpan("runctl.checkpoint.save")
	defer func() {
		if span != nil {
			span.EndNote(kind)
		}
	}()
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("runctl: encoding %s checkpoint: %w", kind, err)
	}
	env, err := json.Marshal(checkpointEnvelope{
		Version:     CheckpointVersion,
		Kind:        kind,
		Fingerprint: fingerprint,
		Payload:     raw,
	})
	if err != nil {
		return fmt.Errorf("runctl: encoding %s checkpoint envelope: %w", kind, err)
	}
	saveErr := func(step string, err error) error {
		return &CheckpointSaveError{Path: path, Cause: fmt.Errorf("%s: %w", step, err)}
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return saveErr("directory", err)
	}
	tmpName, err := writeCheckpointTemp(dir, path, env)
	if err != nil {
		return saveErr("writing", err)
	}

	// Rotate the current checkpoint to the previous-good slot before
	// committing the new one. A crash between the two renames leaves
	// only the rotated file — LoadCheckpoint handles that by falling
	// back a generation.
	if err := os.Rename(path, PrevCheckpointPath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		os.Remove(tmpName)
		return saveErr("rotating", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return saveErr("committing", err)
	}
	obs.Default.Counter("runctl_checkpoint_saves_total").Inc()
	return nil
}

// writeCheckpointTemp writes one fsynced temp file holding the gzipped
// envelope and returns its name. The write path runs through the
// "runctl.checkpoint.write" fault-injection point so chaos runs can
// exercise torn and failed saves.
func writeCheckpointTemp(dir, path string, env []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return "", fmt.Errorf("temp file: %w", err)
	}
	zw := gzip.NewWriter(faultinject.Writer("runctl.checkpoint.write", 0, tmp))
	_, werr := zw.Write(env)
	if cerr := zw.Close(); werr == nil {
		werr = cerr
	}
	// Flush to stable storage before the caller renames over the live
	// checkpoint: rename-before-fsync can commit an empty file on a
	// crash, which is exactly the corruption this layer exists to avoid.
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return "", werr
	}
	return tmp.Name(), nil
}

// loadEnvelope reads and decodes one checkpoint generation. Decode
// failures of any sort come back as *CorruptCheckpointError; a missing
// file comes back as fs.ErrNotExist. The whole gzip stream is read
// (not streamed into the JSON decoder) so the trailing CRC32 is
// verified and a flipped byte anywhere in the file is detected.
func loadEnvelope(path string, generation int) (*checkpointEnvelope, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("runctl: opening checkpoint %s: %w", path, err)
	}
	defer f.Close()
	corrupt := func(cause error) error {
		return &CorruptCheckpointError{Path: path, Generation: generation, Cause: cause}
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, corrupt(err)
	}
	defer zr.Close()
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, corrupt(err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, corrupt(err)
	}
	return &env, nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint into
// payload. It returns (false, nil) when no generation exists at path —
// a fresh start. A corrupt newest file falls back loudly to the
// previous-good generation (warning on stderr and the fallback
// counter) before giving up; re-running the work since the older
// checkpoint is cheap next to losing the campaign. A file whose
// version, kind, or fingerprint does not match stays a hard error with
// no fallback: resuming a checkpoint into a different configuration
// would silently produce garbage statistics, so the mismatch is loud
// and the older generation — written by the same campaign, so equally
// mismatched — is not consulted.
func LoadCheckpoint(path, kind, fingerprint string, payload any) (bool, error) {
	span := obs.StartSpan("runctl.checkpoint.load")
	defer func() {
		if span != nil {
			span.EndNote(kind)
		}
	}()
	var firstErr error
	for generation, p := range []string{path, PrevCheckpointPath(path)} {
		env, err := loadEnvelope(p, generation)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			var ce *CorruptCheckpointError
			if errors.As(err, &ce) {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			return false, err
		}
		if err := validateEnvelope(env, p, kind, fingerprint, payload); err != nil {
			return false, err
		}
		if generation > 0 {
			obs.Default.Counter("runctl_checkpoint_fallback_loads_total").Inc()
			fmt.Fprintf(os.Stderr, "runctl: checkpoint %s unusable (%v); resuming from previous generation %s\n",
				path, firstErr, p)
		}
		obs.Default.Counter("runctl_checkpoint_loads_total").Inc()
		return true, nil
	}
	if firstErr != nil {
		return false, firstErr
	}
	return false, nil
}

// validateEnvelope checks a decoded envelope against the campaign and
// unmarshals its payload. All failures here are hard errors — the file
// decoded fine, it just belongs to someone else or to another binary.
func validateEnvelope(env *checkpointEnvelope, path, kind, fingerprint string, payload any) error {
	if env.Version != CheckpointVersion {
		return fmt.Errorf("runctl: checkpoint %s has version %d, this binary reads version %d",
			path, env.Version, CheckpointVersion)
	}
	if env.Kind != kind {
		return fmt.Errorf("runctl: checkpoint %s holds %q state, expected %q", path, env.Kind, kind)
	}
	if env.Fingerprint != fingerprint {
		return fmt.Errorf("runctl: checkpoint %s was written for a different configuration/seed (fingerprint %q, expected %q)",
			path, env.Fingerprint, fingerprint)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return fmt.Errorf("runctl: decoding %s checkpoint payload: %w", kind, err)
	}
	return nil
}
