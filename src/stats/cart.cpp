#include "stats/cart.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace acsel::stats {

double gini_impurity(std::span<const std::size_t> class_counts) {
  std::size_t total = 0;
  for (const std::size_t c : class_counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  double sum_sq = 0.0;
  for (const std::size_t c : class_counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

namespace {

struct SplitChoice {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double impurity_decrease = 0.0;
};

std::vector<std::size_t> count_classes(const std::vector<std::size_t>& rows,
                                       std::span<const std::size_t> labels,
                                       std::size_t n_classes) {
  std::vector<std::size_t> counts(n_classes, 0);
  for (const std::size_t r : rows) {
    ++counts[labels[r]];
  }
  return counts;
}

SplitChoice best_split(const linalg::Matrix& x,
                       std::span<const std::size_t> labels,
                       const std::vector<std::size_t>& rows,
                       std::size_t n_classes, const CartOptions& options) {
  SplitChoice best;
  const auto parent_counts = count_classes(rows, labels, n_classes);
  const double parent_gini = gini_impurity(parent_counts);
  const auto n = static_cast<double>(rows.size());

  for (std::size_t f = 0; f < x.cols(); ++f) {
    // Sort row indices by this feature; scan candidate thresholds at
    // midpoints between distinct consecutive values.
    std::vector<std::size_t> order = rows;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return x(a, f) < x(b, f);
    });
    std::vector<std::size_t> left_counts(n_classes, 0);
    std::vector<std::size_t> right_counts = parent_counts;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const std::size_t r = order[i];
      ++left_counts[labels[r]];
      --right_counts[labels[r]];
      const double v = x(r, f);
      const double v_next = x(order[i + 1], f);
      if (v == v_next) {
        continue;  // cannot split between equal values
      }
      const std::size_t n_left = i + 1;
      const std::size_t n_right = order.size() - n_left;
      if (n_left < options.min_samples_leaf ||
          n_right < options.min_samples_leaf) {
        continue;
      }
      const double threshold = 0.5 * (v + v_next);
      // Adjacent representable values can make the midpoint collapse onto
      // one endpoint, which would produce an empty child; skip those.
      if (!(threshold > v && threshold <= v_next)) {
        continue;
      }
      const double child_gini =
          (static_cast<double>(n_left) * gini_impurity(left_counts) +
           static_cast<double>(n_right) * gini_impurity(right_counts)) /
          n;
      const double decrease = parent_gini - child_gini;
      if (decrease >
          best.impurity_decrease + 1e-15) {  // strict improvement wins
        best.found = true;
        best.feature = f;
        best.threshold = threshold;
        best.impurity_decrease = decrease;
      }
    }
  }
  if (best.found && best.impurity_decrease < options.min_impurity_decrease) {
    best.found = false;
  }
  return best;
}

}  // namespace

Cart Cart::fit(const linalg::Matrix& x, std::span<const std::size_t> labels,
               const CartOptions& options,
               std::vector<std::string> feature_names) {
  ACSEL_CHECK_MSG(x.rows() == labels.size() && x.rows() > 0,
                  "Cart::fit: shape mismatch or empty training set");
  ACSEL_CHECK_MSG(
      feature_names.empty() || feature_names.size() == x.cols(),
      "Cart::fit: feature_names size must match feature count");

  Cart tree;
  tree.n_features_ = x.cols();
  tree.feature_names_ = std::move(feature_names);
  for (const std::size_t label : labels) {
    tree.n_classes_ = std::max(tree.n_classes_, label + 1);
  }

  struct Job {
    std::size_t node;
    std::vector<std::size_t> rows;
    std::size_t depth;
  };

  std::vector<std::size_t> all_rows(x.rows());
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});

  tree.nodes_.emplace_back();
  std::vector<Job> stack;
  stack.push_back({0, std::move(all_rows), 0});

  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();

    const auto counts = count_classes(job.rows, labels, tree.n_classes_);
    Node& node = tree.nodes_[job.node];
    node.proba.assign(tree.n_classes_, 0.0);
    std::size_t best_count = 0;
    for (std::size_t c = 0; c < tree.n_classes_; ++c) {
      node.proba[c] = static_cast<double>(counts[c]) /
                      static_cast<double>(job.rows.size());
      if (counts[c] > best_count) {
        best_count = counts[c];
        node.label = c;
      }
    }

    const bool pure = best_count == job.rows.size();
    if (pure || job.depth >= options.max_depth ||
        job.rows.size() < options.min_samples_split) {
      continue;  // stays a leaf
    }
    const SplitChoice split =
        best_split(x, labels, job.rows, tree.n_classes_, options);
    if (!split.found) {
      continue;
    }

    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (const std::size_t r : job.rows) {
      (x(r, split.feature) < split.threshold ? left_rows : right_rows)
          .push_back(r);
    }
    ACSEL_CHECK(!left_rows.empty() && !right_rows.empty());

    const std::size_t left_index = tree.nodes_.size();
    tree.nodes_.emplace_back();
    const std::size_t right_index = tree.nodes_.size();
    tree.nodes_.emplace_back();
    // Re-fetch: emplace_back may have reallocated nodes_.
    Node& parent = tree.nodes_[job.node];
    parent.leaf = false;
    parent.feature = split.feature;
    parent.threshold = split.threshold;
    parent.left = left_index;
    parent.right = right_index;

    stack.push_back({left_index, std::move(left_rows), job.depth + 1});
    stack.push_back({right_index, std::move(right_rows), job.depth + 1});
  }

  std::size_t correct = 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (tree.predict(x.row(r)) == labels[r]) {
      ++correct;
    }
  }
  tree.training_accuracy_ =
      static_cast<double>(correct) / static_cast<double>(x.rows());
  return tree;
}

std::size_t Cart::walk(std::span<const double> features) const {
  ACSEL_CHECK_MSG(features.size() == n_features_,
                  "Cart::predict: feature count mismatch");
  ACSEL_CHECK_MSG(!nodes_.empty(), "Cart::predict: untrained tree");
  std::size_t node = 0;
  while (!nodes_[node].leaf) {
    node = features[nodes_[node].feature] < nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return node;
}

std::size_t Cart::predict(std::span<const double> features) const {
  return nodes_[walk(features)].label;
}

std::vector<double> Cart::predict_proba(
    std::span<const double> features) const {
  return nodes_[walk(features)].proba;
}

std::size_t Cart::depth_of(std::size_t node) const {
  if (nodes_[node].leaf) {
    return 0;
  }
  return 1 + std::max(depth_of(nodes_[node].left),
                      depth_of(nodes_[node].right));
}

std::size_t Cart::depth() const {
  return nodes_.empty() ? 0 : depth_of(0);
}

std::size_t Cart::leaf_count() const {
  std::size_t count = 0;
  for (const Node& node : nodes_) {
    count += node.leaf ? 1 : 0;
  }
  return count;
}

void Cart::describe_node(std::size_t index, std::size_t indent,
                         std::string& out) const {
  const Node& node = nodes_[index];
  const std::string pad(indent * 2, ' ');
  // Appends rather than temporary-chaining operator+: GCC 12's -Wrestrict
  // false-positives on `const char* + std::string&&` chains (PR 105651).
  if (node.leaf) {
    out += pad;
    out += "-> cluster ";
    out += std::to_string(node.label);
    out += "\n";
    return;
  }
  std::string name;
  if (feature_names_.empty()) {
    name = "x";
    name += std::to_string(node.feature);
  } else {
    name = feature_names_[node.feature];
  }
  out += pad;
  out += "if (";
  out += name;
  out += " < ";
  out += format_double(node.threshold, 4);
  out += ")\n";
  describe_node(node.left, indent + 1, out);
  out += pad;
  out += "else\n";
  describe_node(node.right, indent + 1, out);
}

std::string Cart::describe() const {
  std::string out;
  if (!nodes_.empty()) {
    describe_node(0, 0, out);
  }
  return out;
}

std::string Cart::serialize() const {
  std::ostringstream os;
  os << n_features_ << ' ' << n_classes_ << ' '
     << format_double(training_accuracy_, 17) << ' ' << nodes_.size() << ' '
     << feature_names_.size();
  for (const auto& name : feature_names_) {
    os << ' ' << name;  // names are identifiers; no spaces by construction
  }
  os << '\n';
  for (const Node& node : nodes_) {
    os << (node.leaf ? 1 : 0) << ' ' << node.feature << ' '
       << format_double(node.threshold, 17) << ' ' << node.left << ' '
       << node.right << ' ' << node.label;
    for (const double p : node.proba) {
      os << ' ' << format_double(p, 17);
    }
    os << '\n';
  }
  return os.str();
}

Cart Cart::parse(const std::string& text) {
  std::istringstream is{text};
  std::string line;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                  "Cart::parse: empty input");
  auto head = split(std::string_view{line}, ' ');
  ACSEL_CHECK_MSG(head.size() >= 5, "Cart::parse: malformed header");
  Cart tree;
  tree.n_features_ = parse_size(head[0]);
  tree.n_classes_ = parse_size(head[1]);
  tree.training_accuracy_ = parse_double(head[2]);
  const std::size_t n_nodes = parse_size(head[3]);
  const std::size_t n_names = parse_size(head[4]);
  ACSEL_CHECK_MSG(head.size() == 5 + n_names, "Cart::parse: name count");
  tree.feature_names_.assign(head.begin() + 5, head.end());

  // No reserve: n_nodes is only a claim until the lines are read.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                    "Cart::parse: truncated node list");
    const auto f = split(std::string_view{line}, ' ');
    ACSEL_CHECK_MSG(f.size() >= 6 && f.size() - 6 == tree.n_classes_,
                    "Cart::parse: malformed node line");
    Node node;
    node.leaf = parse_size(f[0]) != 0;
    node.feature = parse_size(f[1]);
    node.threshold = parse_double(f[2]);
    node.left = parse_size(f[3]);
    node.right = parse_size(f[4]);
    node.label = parse_size(f[5]);
    node.proba.reserve(tree.n_classes_);
    for (std::size_t c = 0; c < tree.n_classes_; ++c) {
      node.proba.push_back(parse_double(f[6 + c]));
    }
    tree.nodes_.push_back(std::move(node));
  }
  // fit() appends both children after their parent, so children index
  // forward: walk() then always reaches a leaf, and its feature reads
  // stay inside the feature vector.
  for (std::size_t i = 0; i < tree.nodes_.size(); ++i) {
    const Node& node = tree.nodes_[i];
    if (!node.leaf) {
      ACSEL_CHECK_MSG(i < node.left && node.left < tree.nodes_.size() &&
                          i < node.right && node.right < tree.nodes_.size(),
                      "Cart::parse: child index out of range");
      ACSEL_CHECK_MSG(node.feature < tree.n_features_,
                      "Cart::parse: feature index out of range");
    }
  }
  return tree;
}

}  // namespace acsel::stats
