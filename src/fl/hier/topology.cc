#include "fl/hier/topology.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"
#include "util/rng.h"

namespace tifl::fl::hier {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("hier::Topology: " + message);
}

// `key=value` → (key, value); bare tokens have an empty value.
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

double parse_double(const std::string& key, const std::string& value) {
  return util::parse_number<double>(value, "hier::Topology: " + key);
}

std::size_t parse_count(const std::string& key, const std::string& value) {
  const double parsed = parse_double(key, value);
  if (parsed < 0.0 || parsed != static_cast<double>(
                                    static_cast<std::size_t>(parsed))) {
    fail(key + ": expected a non-negative integer, got '" + value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

std::vector<std::size_t> Topology::leaves() const {
  std::vector<bool> has_child(nodes.size(), false);
  for (const NodeSpec& node : nodes) {
    if (node.parent >= 0) has_child[static_cast<std::size_t>(node.parent)] = true;
  }
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (!has_child[n]) out.push_back(n);
  }
  return out;
}

std::vector<std::size_t> Topology::children_of(std::size_t node) const {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].parent == static_cast<int>(node)) out.push_back(n);
  }
  return out;
}

std::size_t Topology::depth_of(std::size_t node) const {
  std::size_t depth = 0;
  while (nodes.at(node).parent >= 0) {
    node = static_cast<std::size_t>(nodes[node].parent);
    ++depth;
  }
  return depth;
}

void Topology::validate(std::size_t num_clients) const {
  if (nodes.empty()) fail("no nodes");
  if (nodes[0].parent != -1) fail("node 0 must be the root (parent '-')");
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const NodeSpec& node = nodes[n];
    if (node.parent < 0) fail("'" + node.name + "': second root");
    if (static_cast<std::size_t>(node.parent) >= n) {
      fail("'" + node.name + "': parent must be declared before the child");
    }
    if (node.link.latency_seconds < 0.0) {
      fail("'" + node.name + "': negative link latency");
    }
    if (node.link.bandwidth_mbps <= 0.0) {
      fail("'" + node.name + "': link bandwidth must be > 0");
    }
    if (node.link.jitter_sigma < 0.0) {
      fail("'" + node.name + "': negative link jitter");
    }
    if (node.report_every == 0) {
      fail("'" + node.name + "': report-every must be > 0");
    }
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].name.empty()) fail("unnamed node");
    if (nodes[n].agg_every == 0) {
      fail("'" + nodes[n].name + "': agg-every must be > 0");
    }
    for (std::size_t m = n + 1; m < nodes.size(); ++m) {
      if (nodes[n].name == nodes[m].name) {
        fail("duplicate node name '" + nodes[n].name + "'");
      }
    }
  }
  const std::vector<std::size_t> leaf_nodes = leaves();
  if (!client_leaf.empty()) {
    if (client_leaf.size() != num_clients) {
      fail("client assignment covers " + std::to_string(client_leaf.size()) +
           " clients but the population has " + std::to_string(num_clients));
    }
    for (std::size_t ordinal : client_leaf) {
      if (ordinal >= leaf_nodes.size()) {
        fail("client assigned to leaf ordinal " + std::to_string(ordinal) +
             " but there are only " + std::to_string(leaf_nodes.size()) +
             " leaves");
      }
    }
  }
  if (!is_flat() && num_clients > 0 && num_clients < leaf_nodes.size()) {
    fail("fewer clients than leaf regions");
  }
}

std::vector<std::size_t> Topology::assign_clients(
    std::size_t num_clients) const {
  if (!client_leaf.empty()) {
    if (client_leaf.size() != num_clients) {
      fail("client assignment size mismatch");
    }
    return client_leaf;
  }
  const std::size_t num_leaves = leaves().size();
  std::vector<std::size_t> out(num_clients, 0);
  if (num_leaves <= 1) return out;
  const std::size_t base = num_clients / num_leaves;
  const std::size_t extra = num_clients % num_leaves;
  std::size_t next = 0;
  for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
    const std::size_t take = base + (leaf < extra ? 1 : 0);
    for (std::size_t i = 0; i < take; ++i) out[next++] = leaf;
  }
  return out;
}

std::uint64_t Topology::fingerprint() const {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = util::mix_seed(0x7090, nodes.size());
  for (const NodeSpec& node : nodes) {
    std::uint64_t name_hash = 0xcbf29ce484222325ULL;
    for (char c : node.name) {
      name_hash ^= static_cast<unsigned char>(c);
      name_hash *= 0x100000001b3ULL;
    }
    h = util::mix_seed(h, name_hash,
                       static_cast<std::uint64_t>(node.parent + 1));
    h = util::mix_seed(h, f(node.link.latency_seconds),
                       f(node.link.bandwidth_mbps));
    h = util::mix_seed(h, f(node.link.jitter_sigma), node.agg_every);
    h = util::mix_seed(h, node.report_every, node.num_tiers);
  }
  for (std::size_t ordinal : client_leaf) h = util::mix_seed(h, ordinal);
  return h;
}

Topology Topology::flat() {
  Topology topo;
  NodeSpec root;
  root.name = "global";
  topo.nodes.push_back(std::move(root));
  return topo;
}

Topology Topology::regions(std::size_t n) {
  if (n == 0) fail("regions: n must be > 0");
  if (n == 1) return flat();
  Topology topo;
  NodeSpec root;
  root.name = "global";
  topo.nodes.push_back(std::move(root));
  for (std::size_t r = 0; r < n; ++r) {
    NodeSpec leaf;
    leaf.name = "region" + std::to_string(r);
    leaf.parent = 0;
    topo.nodes.push_back(std::move(leaf));
  }
  return topo;
}

Topology Topology::parse(std::string_view text) {
  Topology topo;
  // (client range, leaf name) directives resolved after all nodes exist.
  std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::string>>
      assigns;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    if (directive == "node") {
      NodeSpec node;
      std::string parent_name;
      if (!(words >> node.name >> parent_name)) {
        fail("line " + std::to_string(line_no) +
             ": expected 'node <name> <parent|->'");
      }
      if (parent_name == "-") {
        node.parent = -1;
      } else {
        node.parent = -2;
        for (std::size_t n = 0; n < topo.nodes.size(); ++n) {
          if (topo.nodes[n].name == parent_name) {
            node.parent = static_cast<int>(n);
            break;
          }
        }
        if (node.parent == -2) {
          fail("line " + std::to_string(line_no) + ": unknown parent '" +
               parent_name + "'");
        }
      }
      std::string token;
      while (words >> token) {
        const auto [key, value] = split_kv(token);
        if (key == "latency") {
          node.link.latency_seconds = parse_double(key, value);
        } else if (key == "bandwidth") {
          node.link.bandwidth_mbps = parse_double(key, value);
        } else if (key == "jitter") {
          node.link.jitter_sigma = parse_double(key, value);
        } else if (key == "agg-every") {
          node.agg_every = parse_count(key, value);
        } else if (key == "report-every") {
          node.report_every = parse_count(key, value);
        } else if (key == "tiers") {
          node.num_tiers = parse_count(key, value);
        } else {
          fail("line " + std::to_string(line_no) + ": unknown key '" + key +
               "'");
        }
      }
      topo.nodes.push_back(std::move(node));
    } else if (directive == "assign") {
      std::string range, leaf_name;
      if (!(words >> range >> leaf_name)) {
        fail("line " + std::to_string(line_no) +
             ": expected 'assign <lo>-<hi> <leaf>'");
      }
      const std::size_t dash = range.find('-');
      if (dash == std::string::npos) {
        fail("line " + std::to_string(line_no) + ": malformed range '" +
             range + "'");
      }
      const std::size_t lo = parse_count("assign", range.substr(0, dash));
      const std::size_t hi = parse_count("assign", range.substr(dash + 1));
      if (hi < lo) {
        fail("line " + std::to_string(line_no) + ": empty range '" + range +
             "'");
      }
      assigns.push_back({{lo, hi}, leaf_name});
    } else {
      fail("line " + std::to_string(line_no) + ": unknown directive '" +
           directive + "'");
    }
  }
  if (topo.nodes.empty()) fail("no nodes declared");
  if (!assigns.empty()) {
    const std::vector<std::size_t> leaf_nodes = topo.leaves();
    std::size_t num_clients = 0;
    for (const auto& [range, leaf_name] : assigns) {
      num_clients = std::max(num_clients, range.second + 1);
    }
    topo.client_leaf.assign(num_clients, leaf_nodes.size());  // sentinel
    for (const auto& [range, leaf_name] : assigns) {
      std::size_t ordinal = leaf_nodes.size();
      for (std::size_t i = 0; i < leaf_nodes.size(); ++i) {
        if (topo.nodes[leaf_nodes[i]].name == leaf_name) {
          ordinal = i;
          break;
        }
      }
      if (ordinal == leaf_nodes.size()) {
        fail("assign: '" + leaf_name + "' is not a leaf node");
      }
      for (std::size_t c = range.first; c <= range.second; ++c) {
        topo.client_leaf[c] = ordinal;
      }
    }
    for (std::size_t c = 0; c < topo.client_leaf.size(); ++c) {
      if (topo.client_leaf[c] == leaf_nodes.size()) {
        fail("assign: client " + std::to_string(c) +
             " is covered by no range");
      }
    }
  }
  return topo;
}

Topology Topology::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open topology file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

}  // namespace tifl::fl::hier
