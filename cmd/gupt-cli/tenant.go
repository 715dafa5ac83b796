package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"text/tabwriter"

	"gupt/internal/tenant"
)

// runTenant dispatches the tenant-administration subcommands. They talk
// HTTP to guptd's admin plane (-admin-addr on the server), never the
// analyst wire, and carry the admin token from -token or GUPT_ADMIN_TOKEN:
//
//	gupt-cli tenant create <id>                  -admin 127.0.0.1:7114
//	gupt-cli tenant grant <id> <dataset>         ("*" grants all datasets)
//	gupt-cli tenant quota <id> <dataset> <eps>
//	gupt-cli tenant limits <id> <qps> <burst> <maxInflight>
//	gupt-cli tenant admin <id> <true|false>      (registration and -op stats)
//	gupt-cli tenant list
//
// create prints the tenant's raw API key exactly once — the server stores
// only its hash, so a lost key means issuing a new one.
func runTenant(args []string) error {
	usage := "usage: gupt-cli tenant <create|grant|quota|limits|admin|list> [-admin addr] [-token t] <args...>"
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	verb := args[0]
	fs := flag.NewFlagSet("gupt-cli tenant "+verb, flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7114", "guptd admin endpoint address")
	token := fs.String("token", os.Getenv("GUPT_ADMIN_TOKEN"), "admin token (default $GUPT_ADMIN_TOKEN)")
	// Accept flags before or after the positionals (`tenant create alice
	// -admin host:port` reads naturally); stdlib Parse stops at the first
	// positional, so re-parse the remainder after collecting each one.
	var pos []string
	rest := args[1:]
	for {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		pos = append(pos, rest[0])
		rest = rest[1:]
	}
	need := func(n int, form string) error {
		if len(pos) != n {
			return fmt.Errorf("usage: gupt-cli tenant %s %s", verb, form)
		}
		return nil
	}

	switch verb {
	case "create":
		if err := need(1, "<id>"); err != nil {
			return err
		}
		var out struct {
			ID     string `json:"id"`
			APIKey string `json:"apiKey"`
		}
		if err := adminPost(*admin, *token, "/tenants", map[string]any{"id": pos[0]}, &out); err != nil {
			return err
		}
		fmt.Printf("tenant %s created\napi key (shown once, store it now): %s\n", out.ID, out.APIKey)
		return nil
	case "grant":
		if err := need(2, "<id> <dataset>"); err != nil {
			return err
		}
		if err := adminPost(*admin, *token, "/tenants/grant", map[string]any{"id": pos[0], "dataset": pos[1]}, nil); err != nil {
			return err
		}
		fmt.Printf("granted %s -> %s\n", pos[0], pos[1])
		return nil
	case "quota":
		if err := need(3, "<id> <dataset> <epsilon>"); err != nil {
			return err
		}
		eps, err := strconv.ParseFloat(pos[2], 64)
		if err != nil {
			return fmt.Errorf("epsilon: %w", err)
		}
		if err := adminPost(*admin, *token, "/tenants/quota", map[string]any{"id": pos[0], "dataset": pos[1], "epsilon": eps}, nil); err != nil {
			return err
		}
		fmt.Printf("quota %s/%s = %g ε\n", pos[0], pos[1], eps)
		return nil
	case "limits":
		if err := need(4, "<id> <qps> <burst> <maxInflight>"); err != nil {
			return err
		}
		qps, err := strconv.ParseFloat(pos[1], 64)
		if err != nil {
			return fmt.Errorf("qps: %w", err)
		}
		burst, err := strconv.Atoi(pos[2])
		if err != nil {
			return fmt.Errorf("burst: %w", err)
		}
		inflight, err := strconv.Atoi(pos[3])
		if err != nil {
			return fmt.Errorf("maxInflight: %w", err)
		}
		body := map[string]any{"id": pos[0], "qps": qps, "burst": burst, "maxInflight": inflight}
		if err := adminPost(*admin, *token, "/tenants/limits", body, nil); err != nil {
			return err
		}
		fmt.Printf("limits %s: %g qps, burst %d, max inflight %d\n", pos[0], qps, burst, inflight)
		return nil
	case "admin":
		if err := need(2, "<id> <true|false>"); err != nil {
			return err
		}
		on, err := strconv.ParseBool(pos[1])
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		if err := adminPost(*admin, *token, "/tenants/admin", map[string]any{"id": pos[0], "admin": on}, nil); err != nil {
			return err
		}
		fmt.Printf("admin %s = %v\n", pos[0], on)
		return nil
	case "list":
		if err := need(0, ""); err != nil {
			return err
		}
		var infos []tenant.Info
		if err := adminGetJSON(*admin, *token, "/tenants", &infos); err != nil {
			return err
		}
		renderTenantTable(os.Stdout, infos)
		return nil
	default:
		return fmt.Errorf("unknown tenant subcommand %q\n%s", verb, usage)
	}
}

// adminPost sends one JSON mutation to the admin plane and decodes the
// reply into out (when non-nil). Non-2xx replies surface the server's
// message verbatim.
func adminPost(adminAddr, token, path string, body any, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+adminAddr+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// renderTenantTable pretty-prints the sanitized tenant list.
func renderTenantTable(w io.Writer, infos []tenant.Info) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TENANT\tADMIN\tDISABLED\tGRANTS\tQUOTAS ε\tSPENT ε\tQPS\tBURST\tINFLIGHT")
	for _, in := range infos {
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%g\t%d\t%d\n",
			in.ID, in.Admin, in.Disabled, in.Grants, in.Quotas, in.Spent,
			in.RateQPS, in.RateBurst, in.MaxInflight)
	}
	tw.Flush()
}
